"""Exact game solver: retrograde tables, cop number, dismantlability."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pursuit.graph import (
    complete_graph,
    cycle_graph,
    from_edges,
    grid_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from pursuit.solver import (
    BudgetError,
    PositionTable,
    cop_number,
    is_copwin_dismantlable,
    optimal_capture_time,
    solve_k,
)


class TestKnownValues:
    def test_paths_are_copwin(self):
        for k in (1, 2, 5, 9):
            assert cop_number(path_graph(k)) == 1

    def test_cycles(self):
        assert cop_number(cycle_graph(3)) == 1
        for k in (4, 5, 8, 11):
            assert cop_number(cycle_graph(k)) == 2

    def test_complete(self):
        for k in (1, 2, 4, 6):
            assert cop_number(complete_graph(k)) == 1

    def test_star(self):
        assert cop_number(star_graph(5)) == 1

    def test_petersen_needs_three(self):
        g = petersen_graph()
        assert cop_number(g) == 3

    def test_grid(self):
        assert cop_number(grid_graph(3, 3)) == 2
        assert cop_number(grid_graph(2, 4)) == 2

    def test_disconnected_sums(self):
        g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # two paths
        assert cop_number(g) == 2


class TestCaptureTime:
    def test_single_vertex(self):
        assert optimal_capture_time(from_edges(1, []), 1) == 0

    def test_edge(self):
        # cop places on one endpoint, robber on the other, one move
        assert optimal_capture_time(path_graph(2), 1) == 1

    def test_path4(self):
        # optimal cop placement on a path of four: center, capture in 2
        assert optimal_capture_time(path_graph(4), 1) == 2

    def test_dominated_placement_is_one(self):
        # Petersen has a dominating set of size three
        assert optimal_capture_time(petersen_graph(), 3) == 1

    def test_losing_k_raises(self):
        with pytest.raises(ValueError):
            optimal_capture_time(cycle_graph(6), 1)


class TestTableInternals:
    def test_consistency_small(self):
        lone = from_edges(4, [(0, 1), (1, 2)])  # vertex 3 has no neighbour
        cases = [(g, k) for g in (path_graph(4), cycle_graph(5), star_graph(3), lone)
                 for k in (1, 2)]
        cases += [(path_graph(4), 3), (cycle_graph(5), 3), (lone, 3)]
        for g, k in cases:
            table = solve_k(g, k)
            assert table.check_consistency() == []

    def test_consistency_catches_a_wrong_move_table(self):
        g = cycle_graph(5)
        t = solve_k(g, 2)
        succ = t.succ.copy()
        succ[0] = succ[1]  # multiset 0 loses a successor and repeats another
        forged = PositionTable(g, 2, t.multisets, t.succ_ptr, succ, np.array(t.steps))
        assert any(p.startswith("cop moves from (0, 0)") for p in forged.check_consistency())

    def test_table_surface(self):
        g = cycle_graph(5)
        a, b = solve_k(g, 2), solve_k(g, 2)
        assert len(a.win) == len(a.steps) == 2 * g.n * math.comb(g.n + 1, 2)
        assert (a.win == b.win) is True and (a.steps == b.steps) is True
        assert type(a.win[0]) is bool and type(a.steps[1]) is int
        assert a.multisets[3] == (0, 3) and a.index_of((3, 0)) == 3
        with pytest.raises(ValueError):
            a.index_of((0, 5))

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            solve_k(cycle_graph(30), 3, position_budget=1000)

    def test_winning_placements_subset(self):
        g = cycle_graph(4)
        t = solve_k(g, 2)
        wins = t.winning_placements()
        assert wins  # two cops win on C4
        best = t.best_placement()
        assert best is not None and best[0] in wins

    def test_steps_none_on_losing(self):
        g = cycle_graph(6)
        t = solve_k(g, 1)
        assert t.best_placement() is None
        # some position is losing with no step count
        losing = [
            (ci, r)
            for ci in range(len(t.multisets))
            for r in range(g.n)
            if not t.is_win(t.multisets[ci], r, 0)
        ]
        assert losing
        ci, r = losing[0]
        assert t.steps_to_capture(t.multisets[ci], r, 0) is None


class TestAgainstMinimax:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_bounded_minimax(self, data):
        n = data.draw(st.integers(2, 6))
        pairs = oracles.vertex_pairs(n)
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edges(n, oracles.edges_of_mask(n, mask))
        k = data.draw(st.integers(1, 2))
        depth = 8
        table = solve_k(g, k)
        oracle = oracles.MinimaxOracle(g, depth)
        # compare a sample of positions rather than all of them
        import itertools

        sample = list(itertools.islice(
            itertools.product(range(len(table.multisets)), range(n)), 0, 40))
        for ci, r in sample:
            ms = table.multisets[ci]
            want = oracle.value(ms, r, True, depth)
            have = table.steps_to_capture(ms, r, 0)
            if want is oracles.INF:
                assert have is None or have > depth
            else:
                assert have == want

    def test_placement_value_matches(self):
        g = cycle_graph(5)
        oracle = oracles.MinimaxOracle(g, 10)
        want = oracle.best_placement_value(2)
        t = solve_k(g, 2)
        best = t.best_placement()
        assert best is not None and best[1] == want


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_full_tables_match_reference(self, data):
        n = data.draw(st.integers(1, 6))
        # optionally leave vertex n-1 out of every edge
        span = n - 1 if data.draw(st.booleans()) else n
        pairs = oracles.vertex_pairs(span)
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edges(n, oracles.edges_of_mask(span, mask))
        k = data.draw(st.integers(1, 3))
        multisets, win, steps = oracles.reference_retrograde(g, k)
        table = solve_k(g, k)
        assert list(table.multisets) == multisets
        assert table.win.tolist() == win
        assert table.steps.tolist() == steps

    # sha256 of win (one byte per position) and steps (little-endian
    # int32), and the best placement, recorded with the list-based solver
    @pytest.mark.parametrize("g, win_sha, steps_sha, best", [
        (grid_graph(6, 6), "602fd93607bac7167eac9b564efd9fce534f0da00d6b090cd6e893a3b1757fa4",
         "8b38897e671001cc7b3d2bb3a4fce15ad853e3ad3d7cb9c88f8cd13fcdcfcf00", ((0, 9, 27), 4)),
        (cycle_graph(40), "2667745fb303c90c6d4cc7784bc7c9b1610221fb0c394793e0378533c2c4b8c2",
         "f8d5dc01e8c9fdb28aab0cff0926bf2ccd59a3f62d063c06b000005266d6fc81", ((0, 10, 25), 7)),
    ], ids=["grid-6x6", "cycle-40"])
    def test_pinned_three_cop_tables(self, g, win_sha, steps_sha, best):
        table = solve_k(g, 3)
        win = np.asarray(table.win, dtype=np.uint8).tobytes()
        steps = np.asarray(table.steps, dtype="<i4").tobytes()
        assert hashlib.sha256(win).hexdigest() == win_sha
        assert hashlib.sha256(steps).hexdigest() == steps_sha
        assert table.best_placement() == best

    def test_long_horizon_path(self):
        # the slowest position takes 1499 moves, so the sweep runs 1500 levels
        assert solve_k(path_graph(1500), 1).best_placement() == ((749,), 750)


class TestDismantlable:
    def test_path_yes(self):
        assert is_copwin_dismantlable(path_graph(6))

    def test_cycle_no(self):
        assert not is_copwin_dismantlable(cycle_graph(5))

    def test_petersen_no(self):
        assert not is_copwin_dismantlable(petersen_graph())

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_equivalence_with_one_cop(self, n, data):
        pairs = oracles.vertex_pairs(n)
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        edges = oracles.edges_of_mask(n, mask)
        if not oracles.is_connected_edges(n, edges):
            return
        g = from_edges(n, edges)
        t = solve_k(g, 1)
        assert bool(t.winning_placements()) == is_copwin_dismantlable(g)
