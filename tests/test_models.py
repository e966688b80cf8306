"""Random graph models: exactness of the samplers and seed discipline."""

import math
from collections import Counter

import numpy as np
import pytest

import oracles
from pursuit.graph import bfs_distances
from pursuit.models import (
    RegularRejectionError,
    gnm,
    gnp,
    random_regular,
)

# critical values of the chi-square distribution at alpha = 0.001,
# from the standard table: df=19 -> 43.82, df=63 -> 103.44, df=5 -> 20.52
CHI2_CRIT = {5: 20.52, 19: 43.82, 63: 103.44}


class TestGnp:
    def test_extremes(self):
        assert gnp(5, 0.0, 1).num_edges == 0
        assert gnp(5, 1.0, 1).num_edges == 10

    def test_determinism(self):
        assert gnp(40, 0.2, 7) == gnp(40, 0.2, 7)
        assert gnp(40, 0.2, 7) != gnp(40, 0.2, 8)

    def test_edge_count_concentrates(self):
        n, p = 300, 0.05
        total = n * (n - 1) // 2
        ms = [gnp(n, p, s).num_edges for s in range(30)]
        mean = sum(ms) / len(ms)
        sd = math.sqrt(total * p * (1 - p))
        # mean of 30 draws should sit within 4 standard errors
        assert abs(mean - total * p) < 4 * sd / math.sqrt(30)

    def test_uniform_over_graphs_small(self):
        # n=4, p=1/2: all 64 labeled graphs equally likely; exercises the
        # geometric skip and the pair unranking end to end
        draws = 6400
        seen = Counter()
        for s in range(draws):
            g = gnp(4, 0.5, s)
            mask = 0
            pairs = oracles.vertex_pairs(4)
            for i, (u, v) in enumerate(pairs):
                if g.has_edge(u, v):
                    mask |= 1 << i
            seen[mask] += 1
        expected = {m: draws / 64 for m in range(64)}
        stat = oracles.chi_square(seen, expected)
        assert stat < CHI2_CRIT[63]

    def test_pair_marginals(self):
        # every pair should appear with frequency near p
        n, p, reps = 12, 0.3, 2000
        hits = Counter()
        for s in range(reps):
            g = gnp(n, p, 10_000 + s)
            for u, v in g.edges():
                hits[(int(u), int(v))] += 1
        total_pairs = n * (n - 1) // 2
        assert len(hits) == total_pairs  # every pair seen at least once
        for pair, h in hits.items():
            phat = h / reps
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(phat - p) < 5 * se, (pair, phat)


class TestGnm:
    def test_exact_edge_count(self):
        for m in (0, 1, 17, 45):
            assert gnm(10, m, 3).num_edges == m

    def test_full_graph(self):
        g = gnm(6, 15, 0)
        assert g.num_edges == 15

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            gnm(4, 7, 0)

    def test_determinism(self):
        assert gnm(30, 60, 5) == gnm(30, 60, 5)

    def test_uniform_over_edge_sets(self):
        # n=4, m=3: C(6,3)=20 equally likely edge sets
        draws = 4000
        seen = Counter()
        pairs = oracles.vertex_pairs(4)
        for s in range(draws):
            g = gnm(4, 3, s)
            mask = 0
            for i, (u, v) in enumerate(pairs):
                if g.has_edge(u, v):
                    mask |= 1 << i
            seen[mask] += 1
        assert len(seen) == 20
        expected = {m: draws / 20 for m in seen}
        stat = oracles.chi_square(seen, expected)
        assert stat < CHI2_CRIT[19]


class TestRandomRegular:
    def test_degrees_exact(self):
        g = random_regular(20, 3, 11)
        assert all(g.degree(v) == 3 for v in range(20))

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)

    def test_d_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_regular(4, 4, 0)

    def test_determinism(self):
        assert random_regular(16, 4, 2) == random_regular(16, 4, 2)

    def test_uniform_over_labeled_cubic(self):
        # conditioned on acceptance the pairing model is uniform over
        # labeled simple cubic graphs; check class frequencies on n=8
        # against exact enumeration counts
        draws = 3000
        seen = Counter()
        for s in range(draws):
            g = random_regular(8, 3, s)
            seen[oracles.cubic8_signature(g)] += 1
        assert set(seen) <= set(oracles.CUBIC8_CLASSES)
        expected = {
            sig: draws * cnt / oracles.CUBIC8_TOTAL
            for sig, cnt in oracles.CUBIC8_CLASSES.items()
        }
        stat = oracles.chi_square(seen, expected)
        assert stat < CHI2_CRIT[5]


class TestModelParams:
    def test_rejection_error_is_raising_type(self):
        assert issubclass(RegularRejectionError, RuntimeError)
