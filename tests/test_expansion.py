"""Expansion verifiers: dense lower bounds, reservoirs, sparse conditions."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import oracles
from pursuit.bounds import g_eps
from pursuit.expansion import (
    AccessibilityFailure,
    AccessibilityWitness,
    DenseExpansionParams,
    accessibility_check,
    build_disjoint_sphere_family,
    DenseProbe,
    dense_probes,
    grow_disjoint_family,
    low_degree_set,
    q_set_construction,
    sparse_probes,
    sparse_report,
    verify_dense_lower,
    verify_witness,
)
from pursuit.graph import complete_graph, cycle_graph, from_edges, petersen_graph
from pursuit.models import gnp


def sparse_instance(n=1200, seed=77):
    d = 1.1 * math.log(n)
    return gnp(n, d / n, seed), d


class TestDenseVerifier:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            DenseExpansionParams(c=0.0)
        with pytest.raises(ValueError):
            DenseExpansionParams(rel_tol=-0.1)

    def test_probes_deterministic(self):
        g = gnp(200, 0.2, 3)
        a = dense_probes(g, 5, 20)
        b = dense_probes(g, 5, 20)
        assert [(p.s_set, p.r) for p in a] == [(p.s_set, p.r) for p in b]

    def test_union_sizes_against_oracle(self):
        g = gnp(150, 0.15, 9)
        probes = dense_probes(g, 1, 25)
        report = verify_dense_lower(g, DenseExpansionParams(), probes)
        adj = oracles.adjacency_sets(g)
        for entry in report.probes:
            dist = oracles.bfs_from(adj, list(entry["s_set"]))
            want = sum(1 for v, dd in dist.items() if dd <= entry["r"])
            assert entry["union_size"] == want

    def test_complete_graph_saturates(self):
        g = complete_graph(40)
        probes = [DenseProbe(s_set=(0,), r=1)]
        report = verify_dense_lower(g, DenseExpansionParams(c=0.5), probes)
        assert report.checked == 1
        assert not report.lower_failures

    def test_poor_expander_fails_lower(self):
        # a long cycle has |N(v,r)| = 2r+1, far below 0.5*min(d^r scaled)
        g = cycle_graph(500)
        probes = [DenseProbe(s_set=(0, 100, 200, 300), r=3)]
        report = verify_dense_lower(g, DenseExpansionParams(c=0.9), probes)
        # mean degree 2: floor = 0.9*min(4*2^3, n) = 28.8 > 4*7
        assert report.lower_failures

    def test_replayable_entries(self):
        g = gnp(100, 0.3, 4)
        probes = dense_probes(g, 2, 10)
        r1 = verify_dense_lower(g, DenseExpansionParams(), probes)
        replay = [DenseProbe(tuple(e["s_set"]), e["r"]) for e in r1.probes]
        r2 = verify_dense_lower(g, DenseExpansionParams(), replay)
        assert [e["union_size"] for e in r1.probes] == [e["union_size"] for e in r2.probes]


class TestSphereFamilies:
    def test_family_disjoint_and_in_shell(self):
        g, _ = sparse_instance(800, 5)
        rep = build_disjoint_sphere_family(g, 0, 2)
        seen = set()
        adj = oracles.adjacency_sets(g)
        center_ball = {v for v, dd in oracles.bfs_from(adj, [0]).items() if dd <= 2}
        for u, w in rep.family.items():
            dist_u = oracles.bfs_from(adj, [u])
            for x in w:
                assert dist_u.get(x, -1) == 3  # exactly r+1 from the anchor
                assert x not in center_ball
                assert x not in seen
                seen.add(x)

    def test_grow_disjoint_family_properties(self):
        g, _ = sparse_instance(900, 8)
        members = [0, 1, 2, 3, 4]
        fam = grow_disjoint_family(g, members, 3)
        adj = oracles.adjacency_sets(g)
        claimed = set()
        for w, piece in fam.items():
            assert w in piece  # the member claims itself
            dist = oracles.bfs_from(adj, [w])
            for x in piece:
                assert dist.get(x, 99) <= 3
                assert x not in claimed
                claimed.add(x)

    def test_greedy_is_deterministic(self):
        g, _ = sparse_instance(600, 2)
        a = grow_disjoint_family(g, [5, 10, 15], 2)
        b = grow_disjoint_family(g, [5, 10, 15], 2)
        assert a == b


class TestAccessibility:
    def test_witness_on_good_graph(self):
        g, d = sparse_instance(1500, 21)
        out = accessibility_check(g, [0, 7, 19], 3, 1.0 / 50.0, 1.0 / 9.0, d)
        assert isinstance(out, AccessibilityWitness)
        assert verify_witness(g, out) == []

    def test_failure_on_path(self):
        # a path cannot grow reservoirs of size d^t for large t
        from pursuit.graph import path_graph

        g = path_graph(200)
        out = accessibility_check(g, [0, 50, 100], 5, 0.9, 1.0, 10.0)
        assert isinstance(out, AccessibilityFailure)
        assert out.size < out.threshold

    def test_tampered_witness_rejected(self):
        g, d = sparse_instance(1000, 13)
        out = accessibility_check(g, [0, 9], 3, 1.0 / 50.0, 1.0 / 9.0, d)
        assert isinstance(out, AccessibilityWitness)
        fam = dict(out.family)
        k0 = sorted(fam)[0]
        k1 = sorted(fam)[1]
        # inject an overlap
        fam[k0] = frozenset(set(fam[k0]) | {next(iter(fam[k1]))})
        import dataclasses

        forged = dataclasses.replace(out, family=fam)
        assert verify_witness(g, forged)


class TestSparseReport:
    def test_delta_window_enforced(self):
        g, d = sparse_instance()
        probes = sparse_probes(g, 3, d, count=10)
        with pytest.raises(ValueError):
            sparse_report(g, 0.6, 0.2, probes, d=d)  # delta >= eps/6

    def test_degree_window_advisory_warns(self):
        g = gnp(60, 0.05, 1)  # mean degree below (1/2+eps) log n
        d = g.mean_degree()
        probes = sparse_probes(g, 1, d, count=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sparse_report(g, 0.6, 0.05, probes, d=d)
        assert any("window" in str(w.message) for w in caught)

    def test_low_degree_set_definition(self):
        g, d = sparse_instance(1000, 4)
        eps = 0.6
        dset = low_degree_set(g, eps, d)
        thr = eps * g_eps(eps) * d
        degs = g.degrees()
        for v in range(g.n):
            assert (v in dset) == (degs[v] <= thr)

    def test_report_counts_consistent(self):
        g, d = sparse_instance(1500, 33)
        probes = sparse_probes(g, 9, d, count=40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = sparse_report(g, 0.6, 0.05, probes, d=d)
        up = rep.per_condition["sphere_upper"]
        assert up["checked"] == g.n * len(probes.radii)
        lo = rep.per_condition["sphere_lower"]
        assert lo["checked"] + lo["skipped"] == len(probes.vertex_probes)
        un = rep.per_condition["union"]
        assert un["checked"] + un["skipped"] == len(probes.union_probes)

    def test_sphere_upper_against_oracle(self):
        g, d = sparse_instance(700, 6)
        probes = sparse_probes(g, 2, d, count=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = sparse_report(g, 0.6, 0.05, probes, d=d)
        adj = oracles.adjacency_sets(g)
        up = rep.per_condition["sphere_upper"]
        if up["witness"] is not None:
            v, r, size = up["witness"]["v"], up["witness"]["r"], up["witness"]["size"]
            dist = oracles.bfs_from(adj, [v])
            assert sum(1 for x, dd in dist.items() if dd == r) == size


def report_document(rep) -> str:
    """The whole sparse report as canonical JSON (floats round-trip exactly)."""
    doc = {
        "n": rep.n, "d": rep.d, "density_eps": rep.density_eps, "delta": rep.delta,
        "g_eps_value": rep.g_eps_value,
        "low_degree": sorted(rep.low_degree),
        "erratic": sorted(rep.erratic),
        "q_sets": [
            {"center": qs.center, "r": qs.r, "r_prime": qs.r_prime, "q": sorted(qs.q),
             "per_a_max": qs.per_a_max, "measured_constant": qs.measured_constant,
             "bound": qs.bound}
            for qs in rep.q_sets
        ],
        "per_condition": rep.per_condition,
    }
    return json.dumps(doc, sort_keys=True)


# sha256 of `report_document` at n=5000, d=1.1 log n, count 200.  The CLI
# row prints only counts, so the golden CLI digests cannot see a changed
# witness, constant or Q-set; these change only together with a deliberate
# behaviour change, listed in CHANGES.md.
SPARSE_REPORT_DIGESTS = {
    101: "ee40f7350d17ac5edcedde8540a8ac1dc0e288533a9701b8583025870b61aafa",
    102: "c17c011a6dacbfce6c0b89fb1dd4594e8fc118f4ae9098918b53b9f0604ac979",
    103: "c5f5c054331ea74b7ee2dbc678cf4c182077d33cbc26ed84c588cfea3cf6e0b9",
    104: "dc5f949a3f488cd8dcdb45e274e4d31a7c0e6b0eeb414272de28555a0ca41c5b",
}


@pytest.mark.parametrize("seed", sorted(SPARSE_REPORT_DIGESTS))
def test_sparse_report_digest(seed):
    g, d = sparse_instance(5000, seed)
    probes = sparse_probes(g, seed, d, count=200)
    rep = sparse_report(g, 0.6, 0.05, probes, d=d)
    digest = hashlib.sha256(report_document(rep).encode()).hexdigest()
    assert digest == SPARSE_REPORT_DIGESTS[seed]


class TestQSets:
    def test_q_set_overlap_measured(self):
        g, d = sparse_instance(1200, 15)
        res = q_set_construction(g, 0, 2, 1, d)
        assert res.per_a_max >= 0
        assert res.bound == pytest.approx(18.0 * d**1 * g.n ** (-1.0 / 54.0))

    @pytest.mark.parametrize("seed", [15, 16])
    def test_matches_dict_bfs_reference(self, seed):
        # parents follow discovery order; at n=1200 and d = 1.1 log n the
        # ball of radius r + r' + 1 is most of the graph
        g, d = sparse_instance(1200, seed)
        rng = np.random.default_rng(seed)
        for v in rng.choice(g.n, size=4, replace=False):
            for r, rp, dd in ((2, 1, d), (1, 2, d), (0, 1, d), (2, 0, 12.0)):
                res = q_set_construction(g, int(v), r, rp, dd)
                q, per_a_max = oracles.q_set_reference(g, int(v), r, rp, dd)
                assert res.q == q and res.per_a_max == per_a_max, (v, r, rp)

    def test_low_child_vertices_belong(self):
        # on a cycle every vertex except the root has one BFS child,
        # and 1 < 2d/3 = 4/3; the root itself has two and is excluded
        g = cycle_graph(50)
        res = q_set_construction(g, 0, 2, 1, 2.0)
        ball = {v for v, dd in oracles.bfs_from(oracles.adjacency_sets(g), [0]).items() if dd <= 3}
        assert res.q == frozenset(ball) - {0}
