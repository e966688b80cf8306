"""Strategy layer: radius schedules, team plans, robber policies."""

import math

import pytest

from pursuit.expansion import low_degree_set
from pursuit.game import GameState, play, validate_trace
from pursuit.graph import cycle_graph, from_edges, path_graph
from pursuit.models import gnp
from pursuit import strategies
from pursuit.solver import solve_k
from pursuit.strategies import (
    DenseStrategyConfig,
    GreedyRobber,
    ScheduleError,
    cop_greedy,
    dense_radius,
    dense_strategy,
    radius_schedule,
    robber_greedy,
    robber_optimal,
    sparse_strategy,
)


class TestDenseRadius:
    def test_definition(self):
        # smallest r with d^(r+1) >= sqrt(n)
        assert dense_radius(10.0, 100) == 0
        assert dense_radius(3.0, 100) == 2  # 3^1=3 < 10, 3^2=9 < 10, 3^3=27
        assert dense_radius(2.0, 10**6) == 9  # 2^10 = 1024 >= 1000

    def test_r_is_tight(self):
        for d, n in ((3.0, 100), (2.5, 10**4), (7.0, 5000)):
            r = dense_radius(d, n)
            root = math.sqrt(n)
            assert d ** (r + 1) >= root
            assert d**r < root or r == 0

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            dense_radius(1.0, 100)


class TestRadiusSchedule:
    def test_worked_example(self):
        # d=10, eps0=1 is out of range; the analogous in-range call
        # d=10, eps0=0.99, n=10^6 gives r_1=1 then the band forces r_2=2
        sch = radius_schedule(10**6, 10.0, 0.99, 1.0, 5.0)
        assert sch.radii[0] == 1
        assert sch.radii[1] == 2

    def test_band_membership_validates(self):
        for n, d in ((3000, 8.8), (10**5, 12.0), (10**6, 10.0)):
            sch = radius_schedule(n, d, 0.5, 1.0, 8.0)
            sch.validate()

    def test_team_count(self):
        n = 3000
        sch = radius_schedule(n, 8.8, 0.5, 1.0, 8.0)
        assert sch.T == math.ceil(math.log(math.log(n)))
        assert len(sch.radii) == sch.T + 1
        assert len(sch.team_sizes) == sch.T

    def test_final_team_size_is_sqrt_n(self):
        sch = radius_schedule(4000, 9.0, 0.5, 1.0, 16.0)
        assert sch.team_sizes[-1] == pytest.approx(math.sqrt(4000))
        # earlier teams decay geometrically
        for i, s in enumerate(sch.team_sizes[:-1], start=1):
            assert s == pytest.approx(16.0 * math.exp(-i) * math.sqrt(4000))

    def test_cleanup_size(self):
        sch = radius_schedule(3000, 8.8, 0.5, 1.0, 8.0)
        assert sch.cleanup_size == math.ceil(3000 ** (1 / 3))

    def test_tiny_product_raises(self):
        # eps0*n < 1 makes the leading radius negative
        with pytest.raises(ScheduleError):
            radius_schedule(20, 2.5, 0.04, 1.0, 4.0)

    def test_degree_below_two_raises(self):
        with pytest.raises(ScheduleError):
            radius_schedule(3000, 1.5, 0.5, 1.0, 8.0)

    def test_eps0_domain(self):
        with pytest.raises(ScheduleError):
            radius_schedule(3000, 8.8, 1.0, 1.0, 8.0)
        with pytest.raises(ScheduleError):
            radius_schedule(3000, 8.8, 0.0, 1.0, 8.0)


class TestDenseStrategy:
    def test_case_selection_saturate(self):
        n = 500
        d = math.log(n) ** 3
        g = gnp(n, min(1.0, d / (n - 1)), 3)
        strat = dense_strategy(g, DenseStrategyConfig(C=6.0, seed=1))
        assert strat.case == "saturate"
        assert strat.r == 0

    def test_case_selection_hold(self):
        # sqrt(n) <= d < sqrt(n) log n with r = 0
        n = 400
        g = gnp(n, 45.0 / (n - 1), 11)
        strat = dense_strategy(g, DenseStrategyConfig(C=8.0, seed=2))
        assert strat.r == 0
        assert strat.case == "hold"

    def test_case_selection_relay(self):
        # r >= 1: d well below sqrt(n)
        n = 2500
        g = gnp(n, 9.0 / (n - 1), 19)
        strat = dense_strategy(g, DenseStrategyConfig(C=8.0, seed=3))
        assert strat.r >= 1
        assert strat.case == "sphere-relay"

    def test_saturate_captures_fast(self):
        n = 600
        d = math.log(n) ** 3
        g = gnp(n, min(1.0, d / (n - 1)), 23)
        strat = dense_strategy(g, DenseStrategyConfig(C=8.0, seed=5))
        res = play(g, strat, robber_greedy(), horizon=50)
        assert res.winner == "cops"
        assert res.capture_time <= 2
        assert validate_trace(g, res) == []

    def test_hold_subcase_plays_legally(self):
        n = 400
        g = gnp(n, 45.0 / (n - 1), 29)
        strat = dense_strategy(g, DenseStrategyConfig(C=10.0, seed=6))
        res = play(g, strat, robber_greedy(), horizon=60)
        assert validate_trace(g, res) == []
        assert res.meta["case"] == "hold"

    def test_relay_case_plays_legally(self):
        n = 2000
        g = gnp(n, 9.0 / (n - 1), 31)
        strat = dense_strategy(g, DenseStrategyConfig(C=10.0, seed=7))
        res = play(g, strat, robber_greedy(), horizon=120)
        assert validate_trace(g, res) == []
        assert res.meta["case"] == "sphere-relay"
        assert "sphere_size" in res.meta

    def test_assignment_audit_within_allotted(self):
        n = 500
        d = math.log(n) ** 3
        g = gnp(n, min(1.0, d / (n - 1)), 37)
        strat = dense_strategy(g, DenseStrategyConfig(C=8.0, seed=8))
        res = play(g, strat, robber_greedy(), horizon=50)
        for entry in res.meta["assignment_audit"]:
            assert entry["distance"] <= entry["allotted"]

    @pytest.mark.parametrize("case", ["saturate", "sphere-relay"])
    def test_isolated_robber_targets_only_its_component(self, case, monkeypatch):
        # a big component, a small one, and the isolated vertex n-1
        if case == "saturate":
            n, body = 30, [(i, j) for i in range(25) for j in range(i + 1, 25)]
        else:
            n, body = 100, [(i, (i + k) % 90) for i in range(90) for k in (1, 2)]
        rest = [(i, i + 1) for i in range(len({v for e in body for v in e}), n - 2)]
        g = from_edges(n, body + rest)
        assert g.degree(n - 1) == 0
        strat = dense_strategy(g, DenseStrategyConfig(C=math.sqrt(n), seed=1))
        assert strat.case == case
        cops = strat.place(g)
        moved = strat.move(g, GameState(tuple(sorted(cops)), n - 1, "cops", 0))
        dests = {e["dest"] for e in strat.meta["assignment_audit"]}
        assert dests == {n - 1}
        assert not strat.meta["failures"]
        # the robber's forced stay needs no distance field
        def forbidden(*args):
            raise AssertionError("distance field computed for a forced stay")

        monkeypatch.setattr(strategies, "two_nearest_source_distances", forbidden)
        state = GameState(tuple(sorted(moved)), n - 1, "robber", 1)
        assert robber_greedy().move(g, state) == n - 1

    def test_budget_scales_with_C(self):
        n = 900
        d = math.log(n) ** 3
        g = gnp(n, min(1.0, d / (n - 1)), 41)
        small = dense_strategy(g, DenseStrategyConfig(C=2.0, seed=9))
        big = dense_strategy(g, DenseStrategyConfig(C=16.0, seed=9))
        small.place(g)
        big.place(g)
        assert len(big.cops) > len(small.cops)


class TestSparseStrategy:
    def make(self, n=1500, seed=51, C=16.0):
        d = 1.1 * math.log(n)
        g = gnp(n, d / n, seed)
        sch = radius_schedule(n, d, 0.5, 1.0, C)
        eps = min(1.0, max(0.05, d / math.log(n) - 0.5))
        x = low_degree_set(g, eps, d)
        return g, sch, x

    def test_place_includes_stations(self):
        g, sch, x = self.make()
        strat = sparse_strategy(g, sch, x, seed=1)
        pos = strat.place(g)
        for v in sorted(x):
            assert v in pos

    def test_round_bookkeeping(self):
        g, sch, x = self.make(seed=53)
        strat = sparse_strategy(g, sch, x, seed=2)
        res = play(g, strat, robber_greedy(), horizon=300)
        rounds = res.meta["rounds"]
        assert rounds, "at least one round must be recorded"
        assert rounds[0]["index"] == 1
        for r in rounds:
            assert r["exit_count"] <= r["sphere_size"] or r["sphere_size"] == 0
        assert res.meta["round1_vulnerable"] is not None
        assert validate_trace(g, res) == []

    def test_round_one_always_vulnerable(self):
        # threshold e^0 * |sphere| makes round one vulnerable by
        # construction whenever the sphere is nonempty
        for seed in (3, 5, 7):
            g, sch, x = self.make(seed=100 + seed)
            strat = sparse_strategy(g, sch, x, seed=seed)
            res = play(g, strat, robber_greedy(), horizon=200)
            assert res.meta["round1_vulnerable"] is True

    def test_claimed_destinations_within_reach(self):
        g, sch, x = self.make(seed=57)
        strat = sparse_strategy(g, sch, x, seed=4)
        res = play(g, strat, robber_greedy(), horizon=300)
        for entry in res.meta["assignment_audit"]:
            assert entry["distance"] <= entry["allotted"]

    def test_captures_usually(self):
        wins = 0
        for seed in range(8):
            g, sch, x = self.make(seed=200 + seed)
            strat = sparse_strategy(g, sch, x, seed=seed)
            res = play(g, strat, robber_greedy(), horizon=300)
            wins += res.winner == "cops"
        assert wins >= 6

    def test_budget_reported(self):
        g, sch, x = self.make(seed=61)
        strat = sparse_strategy(g, sch, x, seed=5)
        pos = strat.place(g)
        assert strat.meta["budget_total"] == len(pos)
        assert strat.meta["cleanup_size"] == min(sch.cleanup_size, g.n)


class TestRobberPolicies:
    def test_greedy_choose_maximizes_distance(self):
        g = path_graph(10)
        r = GreedyRobber()
        assert r.choose(g, (0,)) == 9

    def test_greedy_second_distance_breaks_ties(self):
        # cops at both ends of a path: middle maximizes min distance;
        # with 9 vertices both 4 is the unique argmax
        g = path_graph(9)
        r = GreedyRobber()
        assert r.choose(g, (0, 8)) == 4

    def test_greedy_move_retreats(self):
        g = path_graph(6)
        r = GreedyRobber()
        from pursuit.game import GameState

        s = GameState(cops=(2,), robber=3, turn="robber", step=1)
        assert r.move(g, s) == 4

    def test_greedy_id_tiebreak(self):
        g = cycle_graph(6)
        r = GreedyRobber()
        # cop at 0: vertices 3 is unique farthest; cop at 0 and 3: both
        # 1,2,4,5 tie at d1=1,d2=2 -> smallest id wins
        assert r.choose(g, (0,)) == 3
        assert r.choose(g, (0, 3)) == 1

    def test_optimal_robber_survives_on_cycle(self):
        g = cycle_graph(8)
        t = solve_k(g, 1)
        res = play(g, cop_greedy([0]), robber_optimal(t), horizon=40)
        assert res.winner == "robber-survived"

    def test_optimal_robber_maximizes_when_losing(self):
        # on a path every start ahead of the cop forces the same march
        # to the far end, so the choice must hit the max capture time
        # and break the tie toward the smallest vertex
        g = path_graph(6)
        t = solve_k(g, 1)
        rob = robber_optimal(t)
        start = rob.choose(g, (0,))
        times = {v: t.steps_to_capture((0,), v, 0) for v in range(6)}
        best = max(times.values())
        assert times[start] == best
        assert start == min(v for v, s in times.items() if s == best)


class TestGrabRule:
    def test_arrived_cop_grabs_adjacent_robber(self):
        # strategy with no plan: single cop placed adjacent to the
        # robber must still capture via the grab rule
        g = path_graph(3)
        # the grab rule lives in the shared walker layer; exercise it
        # through a minimal holder strategy on a tiny graph
        from pursuit.strategies import _TeamStrategy

        class Holder(_TeamStrategy):
            def place(self, gg):
                self._add_team([1], "team1")
                return self.positions()

            def move(self, gg, state):
                return self._step_all(state.robber)

        class Stay:
            def choose(self, gg, cops):
                return 2

            def move(self, gg, state):
                return state.robber

        res = play(g, Holder(g), Stay(), horizon=5)
        assert res.winner == "cops"
        assert res.capture_time == 1
