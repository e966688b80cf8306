"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Every checker must accept the program's real output and reject a
deliberately corrupted copy; a short run of every workload, untraced and
traced, must complete with no failed op.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

import run  # imports pursuit from the src/ directory beside this one
import checkers
import tracing
import workloads
from pursuit import cli, solver
from pursuit.expansion import (
    DenseExpansionParams,
    accessibility_check,
    dense_probes,
    sparse_probes,
    sparse_report,
    verify_dense_lower,
)
from pursuit.graph import cycle_graph, path_graph, petersen_graph
from pursuit.models import gnp


def rows(g):
    return checkers.adjacency(g.n, g.edges())


# ---------------------------------------------------------------------------
# Graphs and BFS


def test_bfs_matches_known_distances():
    adj = rows(cycle_graph(8))
    assert checkers.bfs(adj, [0]) == {0: 0, 1: 1, 7: 1, 2: 2, 6: 2, 3: 3, 5: 3, 4: 4}
    assert checkers.bfs(adj, [0, 4], max_depth=1) == {0: 0, 4: 0, 1: 1, 7: 1, 3: 1, 5: 1}
    assert checkers.distance(adj, 0, 3, 5) == 3
    assert checkers.distance(adj, 0, 4, 3) is None


def test_simple_graph_check_rejects_repeats_and_orientation():
    g = gnp(60, 0.2, 1)
    edges = g.edges().tolist()
    assert checkers.check_simple_graph(g.n, edges) == []
    assert checkers.check_simple_graph(g.n, edges + [edges[0]])
    assert checkers.check_simple_graph(g.n, [[v, u] for u, v in edges[:1]] + edges[1:])
    assert checkers.check_simple_graph(g.n, edges + [[0, g.n]])


def test_edge_count_band():
    g = gnp(400, 0.1, 3)
    assert checkers.check_edge_count(400, 0.1, g.num_edges) == []
    assert checkers.check_edge_count(400, 0.1, g.num_edges + 2000)


# ---------------------------------------------------------------------------
# Games


def _path_game():
    """Cop walks 0 -> 4 along a path while the robber waits at 4."""
    trace = [
        {"event": "place", "actor": "cops", "positions": [0]},
        {"event": "place", "actor": "robber", "position": 4},
    ]
    for a in range(4):
        trace.append({"event": "move", "actor": "cops", "from": [a], "to": [a + 1]})
        if a + 1 < 4:
            trace.append({"event": "move", "actor": "robber", "from": 4, "to": 4})
    return rows(path_graph(5)), trace


def test_replay_accepts_a_legal_game_and_rejects_a_jump():
    adj, trace = _path_game()
    assert checkers.replay_game(adj, trace, "cops", 4, 10) == []
    bad = copy.deepcopy(trace)
    bad[2]["to"] = [2]  # 0 -> 2 is not an edge
    bad[4]["from"] = [2]
    assert any("non-edge" in p for p in checkers.replay_game(adj, bad, "cops", 4, 10))


def test_replay_rejects_wrong_winner_or_capture_time():
    adj, trace = _path_game()
    assert checkers.replay_game(adj, trace, "cops", 3, 10)
    assert checkers.replay_game(adj, trace, "robber-survived", None, 10)
    assert checkers.replay_game(adj, trace[:-1], "cops", 4, 10)


def _real_game(regime: str, n: int, seed: int):
    with tracing.Capture() as cap:
        text = workloads.run_cli(["simulate", "--regime", regime, "--n", str(n), "--trials", "1",
                                  "--jobs", "1", "--format", "json", "--seed", str(seed)])
        (_, _, res), = cap.find("play")
        (_, _, g), = cap.find("gnp")
    return text, g, res


def test_real_game_replays_and_a_corrupted_cop_move_is_caught():
    text, g, res = _real_game("sparse", 400, 1)
    adj = rows(g)
    assert checkers.replay_game(adj, res.trace, res.winner, res.capture_time, res.horizon) == []
    bad = copy.deepcopy(res.trace)
    entry = next(e for e in bad if e["event"] == "move" and e["actor"] == "cops")
    a = entry["from"][0]
    far = next(v for v in range(g.n) if v != a and v not in adj[a])
    entry["to"][0] = far
    problems = checkers.replay_game(adj, bad, res.winner, res.capture_time, res.horizon)
    assert any("non-edge" in p for p in problems)


def test_audit_distance_off_by_one_is_caught():
    text, g, res = _real_game("sparse", 400, 1)
    audit = res.meta["assignment_audit"]
    assert audit, "the game dispatched no cop"
    adj = rows(g)
    assert checkers.check_audit(adj, audit) == []
    bad = [dict(audit[0], distance=audit[0]["distance"] + 1)]
    assert checkers.check_audit(adj, bad)
    over = [dict(audit[0], allotted=audit[0]["distance"] - 1)]
    if audit[0]["distance"] > 0:
        assert checkers.check_audit(adj, over)


def test_dense_case_follows_the_split_rule():
    n = 2000
    assert checkers.dense_case(math.log(n) ** 3, n) == ("saturate", 0)
    assert checkers.dense_case(60.0, n) == ("hold", 0)
    assert checkers.dense_case(12.0, n) == ("sphere-relay", 1)


def test_game_check_rejects_a_printed_row_with_the_wrong_case():
    wl = workloads.DenseGames()
    op = wl.round_ops(0, 0)[2]
    with tracing.Capture() as cap:
        text = wl.run(op)
        assert wl.check(op, text, cap) == []
        doc = json.loads(text)
        doc["results"][0]["case"] = "hold"
        assert any("split rule" in p for p in wl.check(op, json.dumps(doc), cap))


# ---------------------------------------------------------------------------
# Expansion reports


def test_dense_report_union_size_off_by_one_is_caught():
    g = gnp(300, 0.1, 5)
    probes = dense_probes(g, 7, 20)
    rep = verify_dense_lower(g, DenseExpansionParams(), probes)
    adj = rows(g)
    every = list(range(len(rep.probes)))
    args = (rep.checked, rep.skipped, len(rep.lower_failures), rep.params.c, every)
    assert checkers.check_dense_report(adj, rep.probes, *args) == []
    bad = copy.deepcopy(rep.probes)
    bad[3]["union_size"] += 1
    assert any("BFS gives" in p for p in checkers.check_dense_report(adj, bad, *args))


def _sparse(n: int = 600, seed: int = 2):
    d = 1.1 * math.log(n)
    g = gnp(n, d / n, seed)
    probes = sparse_probes(g, seed, d, count=40, delta=0.05)
    rep = sparse_report(g, 0.6, 0.05, probes, d=d)
    fields = {
        "d": rep.d, "eps": rep.density_eps, "g": rep.g_eps_value, "radii": list(probes.radii),
        "vertex_probes": probes.vertex_probes, "union_probes": probes.union_probes,
        "low_degree": rep.low_degree, "erratic": rep.erratic, "per_condition": rep.per_condition,
    }
    return g, probes, rep, fields


def test_sparse_report_recount_catches_a_wrong_count_or_size():
    g, _, _, fields = _sparse()
    adj = rows(g)
    assert checkers.check_sparse_report(adj, fields, list(range(50))) == []
    bad = copy.deepcopy(fields)
    bad["per_condition"]["union"]["passed"] -= 1
    assert checkers.check_sparse_report(adj, bad, [])
    bad = copy.deepcopy(fields)
    bad["per_condition"]["sphere_upper"]["witness"]["size"] += 1
    assert checkers.check_sparse_report(adj, bad, [])
    bad = copy.deepcopy(fields)
    bad["g"] *= 1.01
    assert checkers.check_sparse_report(adj, bad, [])


def test_witness_check_catches_overlap_and_distance():
    g, probes, rep, _ = _sparse()
    d = rep.d
    adj = rows(g)
    for _, vprime, rp in probes.union_probes:
        u_set = [x for x in vprime if x not in rep.low_degree]
        if len(u_set) >= 2:
            out = accessibility_check(g, u_set, rp + 1, 1.0 / 50.0, 1.0 / 9.0, d)
            if type(out).__name__ == "AccessibilityWitness":
                break
    else:
        pytest.fail("no witness with two members")
    fam = {w: set(ws) for w, ws in out.family.items()}
    args = (list(out.u_set), out.t, out.c1, out.c2, out.d, out.threshold)
    assert checkers.check_witness(adj, *args, fam) == []
    a, b = out.u_set[:2]
    overlap = {**fam, b: fam[b] | {a}}
    assert any("reservoirs of" in p for p in checkers.check_witness(adj, *args, overlap))
    far_v = next(v for v in range(g.n) if checkers.distance(adj, a, v, out.t) is None)
    far = {**fam, a: fam[a] | {far_v}}
    assert any("farther" in p for p in checkers.check_witness(adj, *args, far))


# ---------------------------------------------------------------------------
# Exact solver tables


def _all_positions(n: int, k: int):
    import itertools

    return [(ms, r, t) for ms in itertools.combinations_with_replacement(range(n), k)
            for r in range(n) for t in (checkers.COPS_TURN, checkers.ROBBER_TURN)]


def test_bellman_check_catches_a_flipped_win_bit():
    g = petersen_graph()
    table = solver.solve_k(g, 2)
    nbh = checkers.closed_neighbourhoods(rows(g))
    positions = _all_positions(g.n, 2)
    assert checkers.check_bellman(nbh, positions, table.is_win, table.steps_to_capture) == []
    target = next(p for p in positions if p[1] not in p[0] and table.is_win(*p))

    def flipped(ms, r, t):
        return (not table.is_win(ms, r, t)) if (ms, r, t) == target else table.is_win(ms, r, t)

    assert checkers.check_bellman(nbh, positions, flipped, table.steps_to_capture)


def test_placement_check_catches_a_wrong_capture_time():
    g = cycle_graph(7)
    table = solver.solve_k(g, 2)
    placement, time_ = table.best_placement()
    assert checkers.check_placement(g.n, placement, time_, table.is_win, table.steps_to_capture) == []
    assert checkers.check_placement(g.n, placement, time_ + 1, table.is_win, table.steps_to_capture)
    lone = solver.solve_k(g, 1)
    assert checkers.check_placement(g.n, (0,), 3, lone.is_win, lone.steps_to_capture)


# ---------------------------------------------------------------------------
# Whole runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_one_round_of_every_workload_passes(name, trace):
    result = run.run_workload(name, seed=5, seconds=0, trace=trace)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[name]().round_ops(5, 0))
    wanted = tracing.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == wanted
    # every wrapper is gone once the run ends
    for fn in (cli.gnp, cli.play, solver.solve_k, solver.PositionTable.best_placement):
        assert not hasattr(fn, "__wrapped__")


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
