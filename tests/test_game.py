"""Game engine: legality, alternation, capture semantics, trace replay."""

import dataclasses

import pytest

import oracles
from pursuit.game import (
    GameState,
    IllegalMoveError,
    is_capture,
    play,
    validate_trace,
)
from pursuit.graph import cycle_graph, from_edges, path_graph, petersen_graph
from pursuit.solver import solve_k
from pursuit.strategies import GreedyCops, GreedyRobber, TableCops, TableRobber


class Scripted:
    """Cop strategy driven by a fixed list of position lists."""

    def __init__(self, placement, moves):
        self.placement = placement
        self.moves = list(moves)
        self.i = 0

    def place(self, g):
        return list(self.placement)

    def move(self, g, state):
        out = self.moves[min(self.i, len(self.moves) - 1)]
        self.i += 1
        return list(out)


class ScriptedRobber:
    def __init__(self, start, moves):
        self.start = start
        self.moves = list(moves)
        self.i = 0

    def choose(self, g, cops):
        return self.start

    def move(self, g, state):
        out = self.moves[min(self.i, len(self.moves) - 1)]
        self.i += 1
        return out


class TestState:
    def test_cops_must_be_sorted(self):
        with pytest.raises(ValueError):
            GameState(cops=(3, 1), robber=0, turn="cops", step=0)
        s = GameState(cops=(1, 3), robber=0, turn="cops", step=0)
        assert s.cops == (1, 3)

    def test_capture_detection(self):
        s = GameState(cops=(2, 4), robber=2, turn="robber", step=1)
        assert is_capture(s)

    def test_legal_moves_cops(self):
        g = path_graph(3)
        s = GameState(cops=(1,), robber=2, turn="cops", step=0)
        # a cop turn's successor multisets are enumerated only by the oracle
        assert oracles.MinimaxOracle(g, 0).cop_moves(s.cops) == [(0,), (1,), (2,)]


class TestPlay:
    def test_capture_on_placement_overlap(self):
        g = path_graph(2)
        res = play(g, Scripted([0], [[0]]), ScriptedRobber(0, [0]))
        assert res.winner == "cops"
        assert res.capture_time == 0

    def test_one_move_capture(self):
        g = path_graph(2)
        res = play(g, Scripted([0], [[1]]), ScriptedRobber(1, [1]))
        assert res.winner == "cops"
        assert res.capture_time == 1

    def test_robber_walks_into_cop(self):
        g = path_graph(3)
        # cop stays at 1; robber at 2 moves onto 1
        res = play(g, Scripted([1], [[1]]), ScriptedRobber(2, [1]), horizon=5)
        assert res.winner == "cops"
        # capture registered after the robber's move, zero further cop moves
        assert res.capture_time == 1

    def test_horizon_survival(self):
        g = cycle_graph(6)
        res = play(g, GreedyCops([0]), GreedyRobber(), horizon=20)
        assert res.winner == "robber-survived"
        assert res.capture_time is None

    def test_illegal_cop_teleport(self):
        g = path_graph(4)
        with pytest.raises(IllegalMoveError):
            play(g, Scripted([0], [[3]]), ScriptedRobber(2, [2]))

    def test_illegal_robber_teleport(self):
        g = path_graph(4)
        with pytest.raises(IllegalMoveError):
            play(g, Scripted([0], [[0]]), ScriptedRobber(3, [1]))

    def test_cop_count_must_stay_fixed(self):
        g = path_graph(3)
        with pytest.raises(IllegalMoveError):
            play(g, Scripted([0, 1], [[0]]), ScriptedRobber(2, [2]))

    def test_aligned_moves_allow_swaps(self):
        # two cops exchanging adjacent posts is legal per piece
        g = path_graph(2)
        res = play(g, Scripted([0, 1], [[1, 0], [1, 0]]), ScriptedRobber(1, [1]))
        assert res.winner == "cops"


class TestTraceValidation:
    def test_valid_traces_pass(self):
        g = petersen_graph()
        t = solve_k(g, 3)
        res = play(g, TableCops(t), TableRobber(t))
        assert res.winner == "cops"
        assert validate_trace(g, res) == []

    def test_survival_trace_passes(self):
        g = cycle_graph(7)
        res = play(g, GreedyCops([0]), GreedyRobber(), horizon=15)
        assert res.winner == "robber-survived"
        assert validate_trace(g, res) == []

    def test_tampered_winner_detected(self):
        g = path_graph(3)
        res = play(g, Scripted([1], [[1]]), ScriptedRobber(2, [2]), horizon=3)
        res.trace  # structure: place, place, then moves
        forged = dataclasses.replace(res, winner="cops", capture_time=2)
        assert validate_trace(g, forged)

    def test_tampered_move_detected(self):
        g = path_graph(4)
        res = play(g, Scripted([0], [[1], [2], [3]]), ScriptedRobber(3, [3]))
        bad = [dict(e) for e in res.trace]
        for e in bad:
            if e["event"] == "move" and e["actor"] == "cops":
                e["to"] = [3]  # teleport
                break
        forged = dataclasses.replace(res, trace=bad)
        assert validate_trace(g, forged)

    def test_forged_cop_jump_alone(self):
        # the first cop move jumps 0->2 on the path 0-1-2-3; the next cop
        # entry starts from 2, so only the cop edge check can object
        g = path_graph(4)
        res = play(g, Scripted([0], [[1], [2], [3]]), ScriptedRobber(3, [3]))
        trace = [dict(e) for e in res.trace]
        trace[2]["to"] = [2]
        trace[4]["from"] = [2]
        forged = dataclasses.replace(res, trace=trace)
        assert validate_trace(g, forged) == ["entry 2: cop 0 illegal move 0->2"]

    def test_forged_robber_jump_alone(self):
        # the robber's first move jumps 4->2 on the path 0-...-4 and it stays
        # there, out of the resting cop's reach, so only the robber edge
        # check can object
        g = path_graph(5)
        res = play(g, Scripted([0], [[0]]), ScriptedRobber(4, [4]), horizon=3)
        trace = [dict(e) for e in res.trace]
        trace[3]["to"] = 2
        for e in trace[4:]:
            if e["actor"] == "robber":
                e["from"] = e["to"] = 2
        forged = dataclasses.replace(res, trace=trace)
        assert validate_trace(g, forged) == ["entry 3: robber illegal move 4->2"]


class TestStrategiesOnSmallGraphs:
    def test_optimal_beats_greedy_robber_when_winning(self):
        g = cycle_graph(5)
        t = solve_k(g, 2)
        res = play(g, TableCops(t), GreedyRobber())
        assert res.winner == "cops"
        best = t.best_placement()
        assert res.capture_time <= best[1]

    def test_optimal_robber_survives_deficit(self):
        g = petersen_graph()
        t = solve_k(g, 2)
        res = play(g, GreedyCops([0, 5]), TableRobber(t), horizon=50)
        assert res.winner == "robber-survived"

    def test_greedy_cop_catches_on_path(self):
        g = path_graph(6)
        res = play(g, GreedyCops([0]), GreedyRobber(), horizon=30)
        assert res.winner == "cops"

    def test_metadata_passthrough(self):
        g = path_graph(3)

        class Meta(Scripted):
            def metadata(self):
                return {"tag": 7}

        res = play(g, Meta([1], [[1]]), ScriptedRobber(0, [0]), horizon=3)
        assert res.meta.get("tag") == 7
