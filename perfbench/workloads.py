"""The four workloads: what one op is, its inputs, and how it is checked.

Every op but `exact` is one in-process `pursuit.cli.main` call with
`--trials 1 --jobs 1 --format json`; an `exact` op is `solve_k(g, 3)`
followed by `best_placement()`, the two calls `pursuit exact` makes per k.
A round is a fixed sequence of op kinds; runs attempt whole rounds, so
every run has the same op mix.  Op i of a run gets the CLI seed
`op_seed(seed, workload index, i)`; the checks sample with the same seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

import checkers
from pursuit import cli, solver


def op_seed(seed: int, salt: int, i: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(salt, i))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    kind: str
    seed: int
    argv: tuple[str, ...] = ()
    expect_case: str = ""  # dense games: the case the degree was chosen for
    graph: str = ""  # exact: named graph


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(argv))
    return buf.getvalue()


def _one(found: list, what: str):
    if len(found) != 1:
        raise AssertionError(f"expected one {what} call, saw {len(found)}")
    return found[0]


def _graph_checks(capture) -> tuple[list[str], object, list[np.ndarray]]:
    """Simplicity and edge-count checks of the op's G(n, p); its neighbour rows."""
    (n, p, _), _, g = _one(capture.find("gnp"), "gnp")
    edges = g.edges()
    problems = checkers.check_simple_graph(n, edges) + checkers.check_edge_count(n, p, len(edges))
    return problems, g, checkers.adjacency(n, edges)


# ---------------------------------------------------------------------------
# Games


def _check_game(op: Op, text: str, capture) -> list[str]:
    row = json.loads(text)["results"][0]
    problems, g, adj = _graph_checks(capture)
    _, _, res = _one(capture.find("play"), "play")
    problems += checkers.replay_game(adj, res.trace, res.winner, res.capture_time, res.horizon)
    problems += checkers.check_audit(adj, res.meta.get("assignment_audit", []))
    if row["captured"] != int(res.winner == "cops") or row["capture_time"] != res.capture_time:
        problems.append(f"printed row {row} disagrees with the game result")
    if row["cops_used"] != len(res.trace[0]["positions"]):
        problems.append(f"cops_used {row['cops_used']} but {len(res.trace[0]['positions'])} placed")
    if op.kind == "dense-game":
        case, r = checkers.dense_case(2.0 * len(g.edges()) / g.n, g.n)
        if (row["case"], row["r"]) != (case, r):
            problems.append(f"case {row['case']} r={row['r']}, split rule gives {case} r={r}")
        if case != op.expect_case:
            problems.append(f"degree chosen for {op.expect_case} gives {case}")
    else:
        if row["error"] or row["rounds"] != len(res.meta["rounds"]):
            problems.append(f"printed row {row} disagrees with the strategy's rounds")
    return problems


class DenseGames:
    """simulate --regime dense --trials 1 at n=2000, C=4, one game per op."""

    n = 2000
    C = 4.0
    # mean degrees that select the saturate, hold and sphere-relay cases
    degrees = (("saturate", math.log(2000) ** 3), ("hold", 60.0), ("sphere-relay", 12.0))
    salt = 1

    def setup(self) -> None:
        pass

    def warm_up_ops(self) -> list[Op]:
        return [Op("dense-game", 0, ("simulate", "--regime", "dense", "--n", "300", "--trials", "1",
                                     "--jobs", "1", "--format", "json", "--seed", "0"))]

    def round_ops(self, seed: int, rnd: int) -> list[Op]:
        out = []
        for j, (case, d) in enumerate(self.degrees):
            s = op_seed(seed, self.salt, rnd * len(self.degrees) + j)
            argv = ("simulate", "--regime", "dense", "--n", str(self.n), "--d", repr(d),
                    "--C", repr(self.C), "--trials", "1", "--jobs", "1", "--format", "json",
                    "--seed", str(s))
            out.append(Op("dense-game", s, argv, expect_case=case))
        return out

    def run(self, op: Op):
        return run_cli(op.argv)

    def check(self, op: Op, out, capture) -> list[str]:
        return _check_game(op, out, capture)


class SparseGames(DenseGames):
    """simulate --regime sparse --trials 1 at n=3000, d=1.1 log n, one game per op."""

    n = 3000
    combos = ((8.0, 0.5), (8.0, 0.9), (16.0, 0.5), (16.0, 0.9))  # (C, eps0)
    salt = 2

    def warm_up_ops(self) -> list[Op]:
        return [Op("sparse-game", 0, ("simulate", "--regime", "sparse", "--n", "500", "--C", "16",
                                      "--trials", "1", "--jobs", "1", "--format", "json",
                                      "--seed", "0"))]

    def round_ops(self, seed: int, rnd: int) -> list[Op]:
        out = []
        for j, (C, eps0) in enumerate(self.combos):
            s = op_seed(seed, self.salt, rnd * len(self.combos) + j)
            argv = ("simulate", "--regime", "sparse", "--n", str(self.n), "--C", repr(C),
                    "--eps0", repr(eps0), "--trials", "1", "--jobs", "1", "--format", "json",
                    "--seed", str(s))
            out.append(Op("sparse-game", s, argv))
        return out


# ---------------------------------------------------------------------------
# Expansion verification


def _check_verify_dense(op: Op, text: str, capture) -> list[str]:
    row = json.loads(text)["results"][0]
    problems, g, adj = _graph_checks(capture)
    _, _, probes = _one(capture.find("dense_probes"), "dense_probes")
    _, _, rep = _one(capture.find("verify_dense_lower"), "verify_dense_lower")
    if [(p.s_set, p.r) for p in probes] != [(e["s_set"], e["r"]) for e in rep.probes]:
        problems.append("report probes differ from the generated probes")
    sample = random.Random(op.seed).sample(range(len(rep.probes)), min(6, len(rep.probes)))
    problems += checkers.check_dense_report(
        adj, rep.probes, rep.checked, rep.skipped, len(rep.lower_failures), rep.params.c, sample)
    want = {"checked": rep.checked, "skipped": rep.skipped,
            "lower_failures": len(rep.lower_failures), "ratio_failures": len(rep.ratio_failures),
            "passed": int(rep.passed)}
    if any(row[k] != v for k, v in want.items()):
        problems.append(f"printed row {row} disagrees with the report {want}")
    return problems


def _check_verify_sparse(op: Op, text: str, capture) -> list[str]:
    row = json.loads(text)["results"][0]
    problems, g, adj = _graph_checks(capture)
    _, _, probes = _one(capture.find("sparse_probes"), "sparse_probes")
    _, _, rep = _one(capture.find("sparse_report"), "sparse_report")
    fields = {
        "d": rep.d, "eps": rep.density_eps, "g": rep.g_eps_value, "radii": list(probes.radii),
        "vertex_probes": probes.vertex_probes, "union_probes": probes.union_probes,
        "low_degree": rep.low_degree, "erratic": rep.erratic, "per_condition": rep.per_condition,
    }
    sample = random.Random(op.seed).sample(range(g.n), min(200, g.n))
    problems += checkers.check_sparse_report(adj, fields, sample)
    ok = failed = 0
    for (_, u_set, t, c1, c2, d), _, out in capture.find("accessibility_check"):
        if type(out).__name__ != "AccessibilityWitness":
            failed += 1
            continue
        ok += 1
        family = {w: set(ws) for w, ws in out.family.items()}
        problems += checkers.check_witness(adj, list(out.u_set), out.t, out.c1, out.c2, out.d,
                                           out.threshold, family)
        if sorted(out.u_set) != sorted(set(u_set)) or out.t != t:
            problems.append("witness does not answer the question asked")
    cond = rep.per_condition
    want = {"d_set_size": len(rep.low_degree), "witnesses_ok": ok, "witnesses_failed": failed,
            "witnesses_emitted": ok + failed, "witness_verify_errors": 0,
            "upper_checked": cond["sphere_upper"]["checked"],
            "upper_passed": cond["sphere_upper"]["passed"],
            "lower_checked": cond["sphere_lower"]["checked"],
            "lower_passed": cond["sphere_lower"]["passed"],
            "union_checked": cond["union"]["checked"], "union_passed": cond["union"]["passed"]}
    if any(row[k] != v for k, v in want.items()):
        problems.append(f"printed row {row} disagrees with {want}")
    return problems


class VerifyExpansion:
    """verify-expansion --trials 1, alternating a dense and a sparse op."""

    dense = {"n": 3000, "count": 100}  # d = log^3 n by default
    sparse = {"n": 5000, "count": 200}  # d = 1.1 log n by default
    salt = 3

    def setup(self) -> None:
        pass

    @staticmethod
    def _argv(regime: str, n: int, count: int, seed: int) -> tuple[str, ...]:
        return ("verify-expansion", "--regime", regime, "--n", str(n), "--count", str(count),
                "--trials", "1", "--jobs", "1", "--format", "json", "--seed", str(seed))

    def warm_up_ops(self) -> list[Op]:
        return [Op("verify-dense", 0, self._argv("dense", 300, 10, 0)),
                Op("verify-sparse", 0, self._argv("sparse", 500, 20, 0))]

    def round_ops(self, seed: int, rnd: int) -> list[Op]:
        s1 = op_seed(seed, self.salt, 2 * rnd)
        s2 = op_seed(seed, self.salt, 2 * rnd + 1)
        return [Op("verify-dense", s1, self._argv("dense", self.dense["n"], self.dense["count"], s1)),
                Op("verify-sparse", s2, self._argv("sparse", self.sparse["n"], self.sparse["count"], s2))]

    def run(self, op: Op):
        return run_cli(op.argv)

    def check(self, op: Op, out, capture) -> list[str]:
        if op.kind == "verify-dense":
            return _check_verify_dense(op, out, capture)
        return _check_verify_sparse(op, out, capture)


# ---------------------------------------------------------------------------
# Exact solver


class Exact:
    """solve_k(g, 3) then best_placement() on fixed graphs of 10^5-10^6 positions.

    Both graphs have cop number 2, so `pursuit exact` stops at k = 2 and
    never builds these k = 3 tables; the op calls the solver directly.
    """

    graphs = ("grid-6x6", "cycle-40")
    k = 3
    positions_checked = 1500
    salt = 4

    def setup(self) -> None:
        self.built = {name: cli.named_graph(name) for name in (*self.graphs, "grid-3x3")}

    def warm_up_ops(self) -> list[Op]:
        return [Op("exact", 0, graph="grid-3x3")]

    def round_ops(self, seed: int, rnd: int) -> list[Op]:
        return [Op("exact", op_seed(seed, self.salt, len(self.graphs) * rnd + j), graph=name)
                for j, name in enumerate(self.graphs)]

    def run(self, op: Op):
        table = solver.solve_k(self.built[op.graph], self.k)
        return table, table.best_placement()

    def check(self, op: Op, out, capture) -> list[str]:
        table, best = out
        g = self.built[op.graph]
        n, k = g.n, self.k
        adj = checkers.adjacency(n, g.edges())
        problems = []
        if len(table.win) != 2 * n * math.comb(n + k - 1, k):
            problems.append(f"table has {len(table.win)} positions, expected 2 n C(n+k-1, k)")
        rng = random.Random(op.seed)
        positions = [(tuple(sorted(rng.randrange(n) for _ in range(k))), rng.randrange(n),
                      rng.randrange(2)) for _ in range(self.positions_checked)]
        problems += checkers.check_bellman(checkers.closed_neighbourhoods(adj), positions,
                                           table.is_win, table.steps_to_capture)
        if best is None:
            problems.append(f"no winning placement for {k} cops on {op.graph}, whose cop number is 2")
        else:
            problems += checkers.check_placement(n, best[0], best[1], table.is_win,
                                                 table.steps_to_capture)
        return problems


WORKLOADS = {
    "dense-games": DenseGames,
    "sparse-games": SparseGames,
    "verify-expansion": VerifyExpansion,
    "exact": Exact,
}


def same_output(a, b) -> bool:
    """Whether a traced op reproduced the untraced op's output exactly."""
    if isinstance(a, str):
        return a == b
    (ta, ba), (tb, bb) = a, b
    return ta.win == tb.win and ta.steps == tb.steps and ba == bb
