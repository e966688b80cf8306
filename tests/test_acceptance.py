"""Acceptance gate: thirteen end-to-end checks at realistic sizes.

Each check prints exactly one PASS/FAIL line (run with -s to stream
them while the suite executes).  These tests are heavier than the unit
suite; the whole file takes several minutes on one core.
"""

import json
import math

import numpy as np
import pytest

import oracles
from pursuit.bounds import (
    chernoff_additive,
    chernoff_lower,
    chernoff_relative,
    f_eps,
    g_eps,
    psi,
    zigzag,
)
from pursuit.cli import main
from pursuit.expansion import (
    AccessibilityWitness,
    DenseExpansionParams,
    accessibility_check,
    dense_probes,
    low_degree_set,
    sparse_probes,
    sparse_report,
    verify_dense_lower,
    verify_witness,
)
from pursuit.game import play, validate_trace
from pursuit.graph import (
    cycle_graph,
    from_edges,
    grid_graph,
    path_graph,
    petersen_graph,
)
from pursuit.matching import AssignmentProblem, assign_within_radius
from pursuit.models import gnp
from pursuit.seeds import trial_entropy
from pursuit.solver import cop_number, is_copwin_dismantlable, solve_k
from pursuit.strategies import (
    DenseStrategy,
    DenseStrategyConfig,
    GreedyRobber,
    SparseStrategy,
    radius_schedule,
)


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\n[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {num:02d} failed: {label}{tail}"


def copwin(g) -> bool:
    return solve_k(g, 1).best_placement() is not None


def cop_number_upto(g, k_max: int):
    found = cop_number(g, k_max)
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# 1. one-cop solvability must coincide with dismantlability on every
#    small connected graph: full labeled enumeration through 6 vertices
#    plus a covering family of all 7-vertex isomorphism classes


def test_01_copwin_iff_dismantlable():
    checked = 0
    mismatches = 0
    for n in range(1, 7):
        count_n = 0
        for mask in oracles.connected_masks(n):
            g = from_edges(n, oracles.edges_of_mask(n, mask))
            if copwin(g) != is_copwin_dismantlable(g):
                mismatches += 1
            count_n += 1
        assert count_n == oracles.LABELED_CONNECTED[n]
        checked += count_n
    reps6 = oracles.connected_reps(6)[6]
    seven = 0
    for edges in oracles.seven_vertex_cover(reps6):
        g = from_edges(7, edges)
        if copwin(g) != is_copwin_dismantlable(g):
            mismatches += 1
        seven += 1
    assert seven == 7056
    checked += seven
    verdict(
        1,
        "one-cop win iff dismantlable on all small connected graphs",
        mismatches == 0,
        f"{checked} graphs, {mismatches} disagreements",
    )


# ---------------------------------------------------------------------------
# 2. known cop numbers, cross-checked against an independent
#    depth-capped minimax (budget counts cop moves)


def minimax_agrees(g, k: int, depth: int = 10) -> tuple[bool, int]:
    """Three-way agreement at the solver's optimal placement.

    Finite minimax value v means capture forced within v <= depth cop
    moves, which must equal the table's count; an infinite value must
    coincide with a robber win or a count beyond the budget.
    """
    table = solve_k(g, k)
    placement, _ = table.best_placement()
    mm = oracles.MinimaxOracle(g, depth)
    finite = 0
    for r in range(g.n):
        v = mm.value(placement, r, True, depth)
        win = table.is_win(placement, r, 0)
        steps = table.steps_to_capture(placement, r, 0)
        if v is not oracles.INF:
            if not (win and steps == v):
                return False, finite
            finite += 1
        else:
            if win and steps <= depth:
                return False, finite
    return True, finite


def test_02_known_cop_numbers():
    failures = []
    finite_total = 0
    for k in range(1, 31):
        g = path_graph(k)
        if cop_number_upto(g, 2) != 1:
            failures.append(f"path-{k}")
        elif k > 1:
            ok, fin = minimax_agrees(g, 1)
            finite_total += fin
            if not ok:
                failures.append(f"path-{k} minimax")
    for k in range(4, 21):
        g = cycle_graph(k)
        if cop_number_upto(g, 3) != 2:
            failures.append(f"cycle-{k}")
        else:
            ok, fin = minimax_agrees(g, 2)
            finite_total += fin
            if not ok:
                failures.append(f"cycle-{k} minimax")
    pet = petersen_graph()
    if cop_number_upto(pet, 4) != 3:
        failures.append("petersen")
    else:
        ok, fin = minimax_agrees(pet, 3)
        finite_total += fin
        if not ok:
            failures.append("petersen minimax")
    # the 4x4 grid contains no corner to dismantle; two cops win
    grid = grid_graph(4, 4)
    c_grid = cop_number_upto(grid, 3)
    if c_grid != 2 or is_copwin_dismantlable(grid):
        failures.append(f"grid-4x4 (got {c_grid})")
    else:
        ok, fin = minimax_agrees(grid, 2)
        finite_total += fin
        if not ok:
            failures.append("grid-4x4 minimax")
    verdict(
        2,
        "known cop numbers with minimax cross-check",
        not failures and finite_total > 0,
        f"{finite_total} finite agreements; failures: {failures or 'none'}",
    )


# ---------------------------------------------------------------------------
# 3. planar graphs never need more than three cops (small instances)


def test_03_planar_three_cops():
    graphs = oracles.delaunay_graphs(50, 10, seed=2024)
    over = [g.n for g in graphs if cop_number_upto(g, 3) is None]
    verdict(
        3,
        "at most three cops on 50 random planar graphs",
        len(graphs) >= 50 and not over,
        f"{len(graphs)} graphs, {len(over)} exceptions",
    )


# ---------------------------------------------------------------------------
# 4. radius-constrained assignment agrees with brute-force feasibility
#    and every infeasibility witness verifies literally


def test_04_assignment_vs_bruteforce():
    rng = np.random.default_rng(20240817)
    disagreements = 0
    feasible_count = 0
    infeasible_count = 0
    for _ in range(1000):
        n = int(rng.integers(8, 41))
        p = float(rng.uniform(0.05, 0.5))
        g = gnp(n, p, int(rng.integers(0, 2**31)))
        k = int(rng.integers(1, min(12, n) + 1))
        xs = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        m = int(rng.integers(max(1, k - 2), k + 3))
        ys = tuple(int(v) for v in rng.integers(0, n, size=m))
        r = int(rng.integers(0, 4))
        res = assign_within_radius(g, AssignmentProblem(xs, ys, r))

        adj_sets = oracles.adjacency_sets(g)
        cand = {}
        for x in xs:
            dist = oracles.bfs_from(adj_sets, [x])
            cand[x] = [i for i, y in enumerate(ys) if dist.get(y, oracles.INF) <= r]
        expect = oracles.hall_feasible(cand, list(xs))
        if res.feasible != expect:
            disagreements += 1
            continue
        if res.feasible:
            feasible_count += 1
            slots = list(res.assignment.values())
            ok = (
                sorted(res.assignment) == sorted(xs)
                and len(set(slots)) == len(slots)
                and all(slot in cand[x] for x, slot in res.assignment.items())
            )
            if not ok:
                disagreements += 1
        else:
            infeasible_count += 1
            kset = res.violation
            reach = set()
            for x in kset:
                reach.update(cand[x])
            if not kset or len(reach) >= len(kset):
                disagreements += 1
    verdict(
        4,
        "assignment feasibility matches brute force with literal witnesses",
        disagreements == 0 and feasible_count >= 25 and infeasible_count >= 25,
        f"{feasible_count} feasible, {infeasible_count} infeasible, "
        f"{disagreements} disagreements",
    )


# ---------------------------------------------------------------------------
# 5. every tail bound dominates its Monte Carlo estimate


def test_05_tail_bounds_dominate():
    violations = 0
    cells = 0
    seed = 100
    for n, p in ((100, 0.3), (400, 0.3), (1000, 0.1), (2000, 0.05)):
        mean = n * p
        for eps in (0.1, 0.25, 0.5):
            bound = chernoff_relative(mean, eps).value
            phat, se = oracles.binomial_tail_mc(
                n, p, (1 - eps) * mean, (1 + eps) * mean, 100_000, seed
            )
            cells += 1
            seed += 1
            if bound < phat - 3 * se:
                violations += 1
        for a in (0.5 * math.sqrt(n), math.sqrt(n), 2 * math.sqrt(n)):
            bound = chernoff_additive(n, p, a).value
            phat, se = oracles.binomial_tail_mc(n, p, mean - a, mean + a, 100_000, seed)
            cells += 1
            seed += 1
            if bound < phat - 3 * se:
                violations += 1
        for frac in (0.25, 0.5, 1.0):
            t = frac * mean
            bound = chernoff_lower(mean, t).value
            phat, se = oracles.binomial_tail_mc(n, p, mean - t, n + 1, 100_000, seed)
            cells += 1
            seed += 1
            if bound < phat - 3 * se:
                violations += 1
    verdict(
        5,
        "tail bounds dominate Monte Carlo frequencies",
        violations == 0,
        f"{cells} cells at 1e5 draws each, {violations} violations",
    )


# ---------------------------------------------------------------------------
# 6. the root finder's contract on a grid of epsilon values


def test_06_root_contract():
    worst_f = 0.0
    worst_id = 0.0
    ok = True
    for i in range(1, 20):
        eps = i / 20.0
        g = g_eps(eps)
        res = abs(f_eps(eps, g) + 0.5)
        ident = abs(psi(-1.0 + eps * g) - (1.0 - eps / 2.0))
        worst_f = max(worst_f, res)
        worst_id = max(worst_id, ident)
        if res > 1e-10 or g <= eps / math.e**2 or ident > 1e-9:
            ok = False
    verdict(
        6,
        "implicit root satisfies residual, floor, and identity",
        ok,
        f"max residual {worst_f:.2e}, max identity gap {worst_id:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. zigzag continuity and exact peak values


def test_07_zigzag_shape():
    ok = True
    h = 1e-13
    worst = 0.0
    for k in range(2, 13):
        x = 1.0 / k
        gap = max(abs(zigzag(x) - zigzag(x - h)), abs(zigzag(x) - zigzag(x + h)))
        worst = max(worst, gap)
        if gap > 1e-12:
            ok = False
    for j in range(1, 7):
        if zigzag(1.0 / (2 * j)) != 0.5:
            ok = False
    verdict(
        7,
        "zigzag continuous at breakpoints with exact half peaks",
        ok,
        f"max breakpoint gap {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# 8. dense union growth verified on 20 seeded graphs with exact replay


def test_08_dense_expansion():
    n = 3000
    d = math.log(n) ** 3
    params = DenseExpansionParams(c=0.5, rel_tol=0.25)
    passed = 0
    replay_ok = True
    for seed in range(20):
        g = gnp(n, min(1.0, d / (n - 1)), seed)
        rep = verify_dense_lower(g, params, dense_probes(g, seed, 100))
        rep2 = verify_dense_lower(g, params, dense_probes(g, seed, 100))
        if rep.probes != rep2.probes:
            replay_ok = False
        passed += rep.passed
    verdict(
        8,
        "dense union growth on 20 seeds with bit-exact replay",
        passed >= 18 and replay_ok,
        f"{passed}/20 all-pass, replay {'ok' if replay_ok else 'BROKEN'}",
    )


# ---------------------------------------------------------------------------
# 9 + 10. sparse sphere growth and accessibility witnesses share one
#         run over 20 seeded graphs


@pytest.fixture(scope="module")
def sparse_runs():
    n = 5000
    d = 1.1 * math.log(n)
    runs = []
    for seed in range(20):
        g = gnp(n, d / n, seed)
        probes = sparse_probes(g, seed, d, count=200, delta=0.05)
        rep = sparse_report(g, 0.6, 0.05, probes, d=d)
        emitted = 0
        verify_errors = 0
        for v, vprime, rp in probes.union_probes[:3]:
            u_set = [x for x in vprime if x not in rep.low_degree]
            if not u_set:
                continue
            res = accessibility_check(g, u_set, rp + 1, 1 / 50, 1 / 9, d)
            if isinstance(res, AccessibilityWitness):
                emitted += 1
                verify_errors += len(verify_witness(g, res))
        runs.append({"report": rep, "emitted": emitted, "verify_errors": verify_errors})
    return runs


def test_09_sparse_expansion(sparse_runs):
    n = 5000
    size_ok = sum(r["report"].d_size_ok for r in sparse_runs)
    upper_violations = 0
    lower_ok = True
    union_ok = True
    for r in sparse_runs:
        pc = r["report"].per_condition
        upper_violations += pc["sphere_upper"]["checked"] - pc["sphere_upper"]["passed"]
        lo, un = pc["sphere_lower"], pc["union"]
        if lo["checked"] == 0 or lo["passed"] < 0.9 * lo["checked"]:
            lower_ok = False
        if un["checked"] == 0 or un["passed"] < 0.9 * un["checked"]:
            union_ok = False
    verdict(
        9,
        "sparse sphere growth on 20 seeds",
        size_ok >= 18 and upper_violations == 0 and lower_ok and union_ok,
        f"low-degree size ok {size_ok}/20, upper violations {upper_violations}, "
        f"lower>=90% {lower_ok}, union>=90% {union_ok}",
    )


def test_10_accessibility_witnesses(sparse_runs):
    emitted = sum(r["emitted"] for r in sparse_runs)
    errors = sum(r["verify_errors"] for r in sparse_runs)
    verdict(
        10,
        "every emitted accessibility witness re-verifies",
        emitted > 0 and errors == 0,
        f"{emitted} witnesses, {errors} verification errors",
    )


# ---------------------------------------------------------------------------
# 11. strategy soundness in both regimes


def test_11_strategy_soundness():
    # dense regime: one graph per trial, every budget constant plays it
    n, trials = 2000, 100
    d = math.log(n) ** 3
    sweep = (2.0, 4.0, 8.0, 16.0)
    captures = {C: 0 for C in sweep}
    trace_failures = 0
    audit_failures = 0
    for trial in range(trials):
        gs, ss = trial_entropy(0, trial, salt=1)
        g = gnp(n, min(1.0, d / (n - 1)), gs)
        for C in sweep:
            strat = DenseStrategy(g, DenseStrategyConfig(C=C, seed=ss))
            res = play(g, strat, GreedyRobber(), horizon=400)
            if validate_trace(g, res):
                trace_failures += 1
            if any(
                e["distance"] > e["allotted"] for e in res.meta["assignment_audit"]
            ):
                audit_failures += 1
            captures[C] += res.winner == "cops"
    dense_best = max(captures.values()) / trials

    # sparse regime: sweep the budget constant and the density knob
    n2, trials2 = 3000, 100
    d2 = 1.1 * math.log(n2)
    combos = [(C, eps0, 1.0) for C in (8.0, 16.0) for eps0 in (0.5, 0.9)]
    sparse_captures = {c: 0 for c in combos}
    vulnerable_all = True
    for trial in range(trials2):
        gs, ss = trial_entropy(0, trial, salt=2)
        g = gnp(n2, d2 / n2, gs)
        x_set = low_degree_set(g, 0.6, d2)
        for C, eps0, F in combos:
            sch = radius_schedule(n2, d2, eps0, F, C)
            strat = SparseStrategy(g, sch, x_set, seed=ss)
            res = play(g, strat, GreedyRobber(), horizon=400)
            if validate_trace(g, res):
                trace_failures += 1
            if any(
                e["distance"] > e["allotted"] for e in res.meta["assignment_audit"]
            ):
                audit_failures += 1
            if res.meta["round1_vulnerable"] is not True:
                vulnerable_all = False
            sparse_captures[(C, eps0, F)] += res.winner == "cops"
    sparse_best = max(sparse_captures.values()) / trials2

    verdict(
        11,
        "strategies capture with clean traces in both regimes",
        dense_best >= 0.9
        and sparse_best >= 0.7
        and trace_failures == 0
        and audit_failures == 0
        and vulnerable_all,
        f"dense best {dense_best:.0%}, sparse best {sparse_best:.0%}, "
        f"trace failures {trace_failures}, audit failures {audit_failures}, "
        f"round-1 vulnerable everywhere {vulnerable_all}",
    )


# ---------------------------------------------------------------------------
# 12. cop budget stays within a factor-4 band of sqrt(n) across sizes


def test_12_scaling_band(tmp_path):
    out = tmp_path / "scaling.json"
    rc = main(
        [
            "scaling",
            "--sizes", "400,900,1600,2500",
            "--Cs", "2,4,8,16",
            "--trials", "10",
            "--target", "0.9",
            "--seed", "0",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    chosen = {row["n"]: row for row in doc["results"] if row["chosen"] == 1}
    sizes = (400, 900, 1600, 2500)
    ratios = [chosen[n]["ratio_to_sqrt_n"] for n in sizes if n in chosen]
    band_ok = (
        len(ratios) == len(sizes) and max(ratios) / min(ratios) <= 4.0
    )
    verdict(
        12,
        "cop budget to sqrt(n) ratio within a factor-4 band",
        band_ok,
        f"ratios {[round(r, 2) for r in ratios]}",
    )


# ---------------------------------------------------------------------------
# 13. every command is byte-deterministic under a fixed seed


def test_13_cli_determinism(tmp_path):
    commands = [
        ["gen", "--model", "gnm", "--n", "60", "--m", "150", "--seed", "9"],
        ["exact", "--graph", "petersen", "--format", "json"],
        ["simulate", "--regime", "dense", "--n", "150", "--trials", "2",
         "--seed", "3", "--horizon", "50"],
        ["simulate", "--regime", "sparse", "--n", "400", "--trials", "2",
         "--seed", "4", "--C", "16", "--horizon", "200"],
        ["verify-expansion", "--regime", "dense", "--n", "300", "--trials", "1",
         "--count", "10", "--seed", "5"],
        ["verify-expansion", "--regime", "sparse", "--n", "400", "--trials", "1",
         "--count", "10", "--seed", "6"],
        ["bounds", "--kind", "geps", "--eps", "0.6", "--format", "json"],
        ["zigzag", "--points", "40"],
        ["scaling", "--sizes", "64", "--Cs", "8", "--trials", "2",
         "--target", "0.0", "--seed", "1", "--horizon", "40"],
    ]
    mismatched = []
    for i, argv in enumerate(commands):
        a = tmp_path / f"run{i}a.out"
        b = tmp_path / f"run{i}b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            mismatched.append(argv[0])
    verdict(
        13,
        "identical commands produce byte-identical output",
        not mismatched,
        f"{len(commands)} commands, mismatches: {mismatched or 'none'}",
    )
