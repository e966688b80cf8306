"""Command line interface.

Subcommands: gen, exact, simulate, verify-expansion, bounds, zigzag,
scaling.  Outputs are deterministic functions of the arguments: CSV
starts with '#' metadata lines (command, version, sorted parameters,
never a timestamp), JSON is an envelope {command, version, params,
results} dumped with sorted keys.  Re-running a command with the same
arguments reproduces the output byte for byte.

A config file (--config) holds key=value lines using option dests
(e.g. "trials=100"); explicit command line flags win because config
tokens are injected before them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .bounds import (
    TailBound,
    bernstein_degree,
    chernoff_additive,
    chernoff_lower,
    chernoff_relative,
    f_eps,
    g_eps,
    psi,
    zigzag,
)
from .expansion import (
    DenseExpansionParams,
    accessibility_check,
    AccessibilityWitness,
    dense_probes,
    low_degree_set,
    sparse_probes,
    sparse_report,
    verify_dense_lower,
    verify_witness,
)
from .game import play
from .graph import (
    GraphView,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    read_edge_list,
    star_graph,
    to_edge_list_text,
)
from .models import gnm, gnp, random_regular
from .seeds import trial_entropy
from .solver import BudgetError, cop_number, is_copwin_dismantlable
from .strategies import (
    DenseStrategy,
    DenseStrategyConfig,
    GreedyRobber,
    ScheduleError,
    SparseStrategy,
    radius_schedule,
)

DEFAULT_HORIZON = 400


# ---------------------------------------------------------------------------
# Deterministic output


def _render_csv(command: str, params: dict, fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(f"# pursuit {command}\n")
    buf.write(f"# version={__version__}\n")
    buf.write("# params: " + " ".join(f"{k}={params[k]}" for k in sorted(params)) + "\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render_json(command: str, params: dict, results) -> str:
    payload = {
        "command": command,
        "version": __version__,
        "params": params,
        "results": results,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_out(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit(args, command: str, params: dict, fieldnames: list[str] | None, rows) -> None:
    """Write rows as CSV (fieldnames required) or a JSON envelope."""
    if args.format == "csv":
        if fieldnames is None:
            raise ValueError("CSV output needs fieldnames")
        text = _render_csv(command, params, fieldnames, rows)
    else:
        text = _render_json(command, params, rows)
    _write_out(args.out, text)


# ---------------------------------------------------------------------------
# Graphs


def named_graph(spec: str) -> GraphView:
    """Parse graph names: path-K, cycle-K, complete-K, star-K, petersen,
    grid-RxC.  A name that does not parse or build exits with a message."""
    if spec == "petersen":
        return petersen_graph()
    if "-" in spec:
        kind, _, arg = spec.partition("-")
        table = {
            "path": path_graph,
            "cycle": cycle_graph,
            "complete": complete_graph,
            "star": star_graph,
        }
        try:
            if kind == "grid" and "x" in arg:
                r, _, c = arg.partition("x")
                return grid_graph(int(r), int(c))
            if kind in table:
                return table[kind](int(arg))
        except ValueError as err:
            raise SystemExit(f"bad graph name {spec!r}: {err}")
    raise SystemExit(f"unknown graph name: {spec!r}")


def _load_graph(args) -> tuple[GraphView, str]:
    if getattr(args, "graph_file", None):
        name = args.graph_file
        try:
            g = read_edge_list(name)
        except (OSError, ValueError) as err:
            raise SystemExit(f"bad graph file {name!r}: {err}")
    elif getattr(args, "graph", None):
        g, name = named_graph(args.graph), args.graph
    else:
        raise SystemExit("provide --graph NAME or --graph-file PATH")
    if g.n < 1:
        raise SystemExit(f"graph {name!r} has no vertices")
    return g, name


# ---------------------------------------------------------------------------
# Trials
#
# Every trial of `simulate`, `verify-expansion` and `scaling` draws one
# seeded G(n, p), then plays a game on it or checks its expansion.
# TRIALS maps (command, regime) to (salt, body, options, columns):
#   salt     the trial_entropy salt that separates the four kinds' seeds;
#   body     (g, strategy or probe seed, task) -> the row's result columns;
#   options  the command's options a task carries beyond n, d, seed, trials;
#   columns  the row's columns; parameter columns are copied from the task.
# The bodies call the library through this module's globals, so patching
# `pursuit.cli.play` and the like reaches them.

MIN_N = {"dense": 2, "sparse": 1}  # the least n that p = d/(n-1) or d/n takes


def _play(g, strategy, task) -> tuple[dict, dict]:
    """One game against the greedy robber: its metadata and shared columns."""
    res = play(g, strategy, GreedyRobber(), horizon=task["horizon"])
    meta = res.meta
    return meta, {
        "cops_used": meta.get("budget_total"),
        "captured": int(res.winner == "cops"),
        "capture_time": res.capture_time,
        "failures": len(meta.get("failures", [])),
    }


def _dense_game(g, ss: int, task: dict) -> dict:
    meta, cols = _play(g, DenseStrategy(g, DenseStrategyConfig(C=task["C"], seed=ss)), task)
    return dict(cols, case=meta.get("case"), r=meta.get("r"), omega=meta.get("omega"))


def _sparse_game(g, ss: int, task: dict) -> dict:
    n, d = task["n"], task["d"]
    try:
        sched = radius_schedule(n, d, task["eps0"], task["F"], task["C"])
    except ScheduleError as exc:
        return {"captured": 0, "error": f"schedule: {exc}"}
    density_eps = min(1.0, max(0.05, d / math.log(n) - 0.5))
    strategy = SparseStrategy(g, sched, low_degree_set(g, density_eps, d), seed=ss)
    meta, cols = _play(g, strategy, task)
    return dict(cols, rounds=len(meta.get("rounds", [])), sealed=meta.get("sealed"),
                round1_vulnerable=meta.get("round1_vulnerable"), error="")


def _dense_check(g, ps: int, task: dict) -> dict:
    probes = dense_probes(g, ps, task["count"])
    report = verify_dense_lower(g, DenseExpansionParams(c=task["c"], rel_tol=task["tol"]), probes)
    return {
        "checked": report.checked,
        "skipped": report.skipped,
        "lower_failures": len(report.lower_failures),
        "ratio_failures": len(report.ratio_failures),
        "worst_ratio": report.worst_ratio["ratio"] if report.worst_ratio else None,
        "passed": int(report.passed),
    }


def _sparse_check(g, ps: int, task: dict) -> dict:
    d, eps, delta = task["d"], task["eps"], task["delta"]
    probes = sparse_probes(g, ps, d, count=task["count"], delta=delta)
    report = sparse_report(g, eps, delta, probes, d=d)
    cond = report.per_condition
    witnesses = emitted = failed = verrors = 0
    for v, vprime, rp in probes.union_probes[:3]:
        u_set = [x for x in vprime if x not in report.low_degree]
        if not u_set:
            continue
        emitted += 1
        out = accessibility_check(g, list(u_set), rp + 1, 1.0 / 50.0, 1.0 / 9.0, d)
        if isinstance(out, AccessibilityWitness):
            witnesses += 1
            verrors += len(verify_witness(g, out))
        else:
            failed += 1
    return {
        "d_set_size": len(report.low_degree),
        "d_size_ok": int(report.d_size_ok),
        "upper_checked": cond["sphere_upper"]["checked"],
        "upper_passed": cond["sphere_upper"]["passed"],
        "lower_checked": cond["sphere_lower"]["checked"],
        "lower_passed": cond["sphere_lower"]["passed"],
        "union_checked": cond["union"]["checked"],
        "union_passed": cond["union"]["passed"],
        "q_overlap_ok": int(all(qs.per_a_max <= qs.bound for qs in report.q_sets)),
        "witnesses_emitted": emitted,
        "witnesses_ok": witnesses,
        "witnesses_failed": failed,
        "witness_verify_errors": verrors,
    }


TRIALS = {
    ("simulate", "dense"): (
        1, _dense_game, ("C", "horizon"),
        ["trial", "n", "d", "C", "case", "r", "omega", "cops_used", "captured",
         "capture_time", "failures"],
    ),
    ("simulate", "sparse"): (
        2, _sparse_game, ("C", "horizon", "eps0", "F"),
        ["trial", "n", "d", "C", "eps0", "F", "cops_used", "captured", "capture_time",
         "rounds", "sealed", "round1_vulnerable", "failures", "error"],
    ),
    ("verify-expansion", "dense"): (
        3, _dense_check, ("count", "c", "tol"),
        ["trial", "n", "d", "checked", "skipped", "lower_failures", "ratio_failures",
         "worst_ratio", "passed"],
    ),
    ("verify-expansion", "sparse"): (
        4, _sparse_check, ("count", "eps", "delta"),
        ["trial", "n", "d", "eps", "delta", "d_set_size", "d_size_ok", "upper_checked",
         "upper_passed", "lower_checked", "lower_passed", "union_checked", "union_passed",
         "q_overlap_ok", "witnesses_emitted", "witnesses_ok", "witnesses_failed",
         "witness_verify_errors"],
    ),
}


def _trial(task: dict) -> dict:
    """One row of TRIALS[command, regime]; top level so process pools can pickle it."""
    salt, body, _, columns = TRIALS[task["command"], task["regime"]]
    n, d = task["n"], task["d"]
    gs, s = trial_entropy(task["seed"], task["trial"], salt=salt)
    g = gnp(n, min(1.0, d / (n - 1 if task["regime"] == "dense" else n)), gs)
    row = {k: task.get(k) for k in columns}
    row.update(body(g, s, task))
    return row


def _run_tasks(tasks: list[dict], jobs: int) -> list[dict]:
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_trial, tasks))
    return [_trial(t) for t in tasks]


# ---------------------------------------------------------------------------
# Subcommand drivers


def cmd_gen(args) -> None:
    if args.model == "gnp":
        if args.p is None:
            raise SystemExit("gnp needs --p")
        build, arg = gnp, args.p
    elif args.model == "gnm":
        if args.m is None:
            raise SystemExit("gnm needs --m")
        build, arg = gnm, args.m
    else:
        if args.d is None or not args.d.is_integer():
            raise SystemExit("regular needs an integer --d")
        build, arg = random_regular, int(args.d)
    try:
        g = build(args.n, arg, args.seed)
    except ValueError as err:
        raise SystemExit(f"gen --model {args.model}: {err}")
    _write_out(args.out, to_edge_list_text(g))


def cmd_exact(args) -> None:
    g, name = _load_graph(args)
    try:
        found = cop_number(g, args.k_max, position_budget=args.budget)
    except BudgetError as err:
        raise SystemExit(
            f"exact: {err}; fewer cops do not win; raise --budget or lower --k-max"
        )
    c, capture_time = found or (None, None)
    result = {
        "graph": name,
        "n": g.n,
        "m": g.num_edges,
        "cop_number": c,
        "capture_time": capture_time,
        "dismantlable": is_copwin_dismantlable(g),
        "k_max_checked": args.k_max,
    }
    params = {"graph": name, "k_max": args.k_max, "budget": args.budget}
    if args.format == "csv":
        _emit(args, "exact", params, list(result.keys()), [result])
    else:
        _emit(args, "exact", params, None, result)


def cmd_trials(args) -> None:
    """simulate and verify-expansion: one TRIALS row per seeded trial."""
    n, regime = args.n, args.regime
    _, _, options, columns = TRIALS[args.command, regime]
    if n < MIN_N[regime]:
        raise SystemExit(f"{args.command} --regime {regime} needs --n >= {MIN_N[regime]}, got {n}")
    if args.command == "verify-expansion" and regime == "sparse" and not (
        0 < args.eps <= 1 and 0 < args.delta < args.eps / 6
    ):
        raise SystemExit(
            f"verify-expansion --regime sparse needs 0 < --eps <= 1 and 0 < --delta < --eps/6, "
            f"got --eps {args.eps} --delta {args.delta}"
        )
    d = args.d
    if d is None:
        d = math.log(n) ** 3 if regime == "dense" else 1.1 * math.log(n)
    params = {"regime": regime, "n": n, "d": d, "seed": args.seed, "trials": args.trials}
    params.update((k, getattr(args, k)) for k in options)
    tasks = [dict(params, command=args.command, trial=t) for t in range(args.trials)]
    _emit(args, args.command, params, columns, _run_tasks(tasks, args.jobs))


# kind -> (evaluator, the flag dests it takes in order); the dests are also
# the row's parameter columns, in that order
BOUNDS = {
    "relative": (chernoff_relative, ("mean", "dev_eps")),
    "additive": (chernoff_additive, ("n", "p", "a")),
    "lower": (chernoff_lower, ("mean", "t")),
    "bernstein": (bernstein_degree, ("mean", "x")),
    "psi": (psi, ("x",)),
    "feps": (f_eps, ("eps", "x")),
    "geps": (g_eps, ("eps",)),
}


def cmd_bounds(args) -> None:
    kind = args.kind
    evaluate, dests = BOUNDS[kind]
    shown = {k: getattr(args, k) for k in dests}
    if None in shown.values():
        flags = " ".join("--" + k.replace("_", "-") for k in dests)
        raise SystemExit(f"bounds --kind {kind} needs {flags}")
    try:
        value = evaluate(*shown.values())
    except ValueError as err:
        raise SystemExit(f"bounds --kind {kind}: {err}")
    if isinstance(value, TailBound):
        value = value.value
    result = {"kind": kind, "params": shown, "value": value}
    params = dict(shown, kind=kind)
    if args.format == "csv":
        row = dict(shown, kind=kind, value=value)
        _emit(args, "bounds", params, list(row.keys()), [row])
    else:
        _emit(args, "bounds", params, None, result)


def cmd_zigzag(args) -> None:
    if args.x is not None:
        xs = [args.x]
    else:
        xs = [i / args.points for i in range(1, args.points + 1)]
    try:
        rows = [{"x": x, "value": zigzag(x)} for x in xs]
    except ValueError as err:
        raise SystemExit(f"zigzag: {err}")
    params = {"points": args.points, "x": args.x}
    _emit(args, "zigzag", params, ["x", "value"], rows)


def cmd_scaling(args) -> None:
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < MIN_N["dense"]:
        raise SystemExit(f"scaling needs every --sizes entry >= {MIN_N['dense']}, got {args.sizes}")
    cs = [float(c) for c in args.Cs.split(",")]
    rows = []
    for n in sizes:
        d = math.log(n) ** 3
        chosen = None
        for C in cs:
            tasks = [
                {"command": "simulate", "regime": "dense", "n": n, "d": d, "C": C,
                 "seed": args.seed, "trial": t, "horizon": args.horizon}
                for t in range(args.trials)
            ]
            out = _run_tasks(tasks, args.jobs)
            captures = sum(r["captured"] for r in out)
            rate = captures / len(out)
            mean_cops = sum(r["cops_used"] for r in out) / len(out)
            achieved = rate >= args.target
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "C": C,
                    "trials": args.trials,
                    "rate": rate,
                    "mean_cops": mean_cops,
                    "ratio_to_sqrt_n": mean_cops / math.sqrt(n),
                    "achieved": int(achieved),
                    "chosen": 0,
                }
            )
            if achieved and chosen is None:
                chosen = len(rows) - 1
                break
        if chosen is not None:
            rows[chosen]["chosen"] = 1
    params = {"sizes": args.sizes, "Cs": args.Cs, "trials": args.trials,
              "target": args.target, "seed": args.seed, "horizon": args.horizon}
    fields = ["n", "d", "C", "trials", "rate", "mean_cops", "ratio_to_sqrt_n",
              "achieved", "chosen"]
    _emit(args, "scaling", params, fields, rows)


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(sub, *, trials: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=0)
    if trials:
        sub.add_argument("--trials", type=int, default=10)
    sub.add_argument("--out", default="-")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None)
    sub.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pursuit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="generate a random graph as an edge list")
    g.add_argument("--model", choices=("gnp", "gnm", "regular"), default="gnp")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=None)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--d", type=float, default=None)
    _add_common(g, trials=False)
    g.set_defaults(func=cmd_gen)

    e = subs.add_parser("exact", help="exact cop number of a small graph")
    e.add_argument("--graph", default=None, help="path-K, cycle-K, complete-K, star-K, petersen, grid-RxC")
    e.add_argument("--graph-file", default=None)
    e.add_argument("--k-max", type=int, default=4)
    e.add_argument("--budget", type=int, default=50_000_000)
    _add_common(e, trials=False)
    e.set_defaults(func=cmd_exact)

    s = subs.add_parser("simulate", help="play seeded pursuit games on random graphs")
    s.add_argument("--regime", choices=("dense", "sparse"), required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=float, default=None)
    s.add_argument("--C", type=float, default=8.0)
    s.add_argument("--eps0", type=float, default=0.5)
    s.add_argument("--F", type=float, default=1.0)
    s.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    _add_common(s)
    s.set_defaults(func=cmd_trials)

    v = subs.add_parser("verify-expansion", help="empirical expansion checks on random graphs")
    v.add_argument("--regime", choices=("dense", "sparse"), required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=float, default=None)
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--c", type=float, default=0.5)
    v.add_argument("--tol", type=float, default=0.25)
    v.add_argument("--eps", type=float, default=0.6)
    v.add_argument("--delta", type=float, default=0.05)
    _add_common(v)
    v.set_defaults(func=cmd_trials)

    b = subs.add_parser("bounds", help="evaluate one tail bound or helper function")
    b.add_argument("--kind", required=True, choices=tuple(BOUNDS))
    b.add_argument("--mean", type=float, default=None)
    b.add_argument("--dev-eps", type=float, default=None)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--a", type=float, default=None)
    b.add_argument("--t", type=float, default=None)
    b.add_argument("--x", type=float, default=None)
    b.add_argument("--eps", type=float, default=None)
    _add_common(b, trials=False)
    b.set_defaults(func=cmd_bounds)

    z = subs.add_parser("zigzag", help="tabulate the zigzag function")
    z.add_argument("--points", type=int, default=1000)
    z.add_argument("--x", type=float, default=None)
    _add_common(z, trials=False)
    z.set_defaults(func=cmd_zigzag)

    c = subs.add_parser("scaling", help="cop budget against sqrt(n) across sizes")
    c.add_argument("--sizes", default="400,900,1600,2500")
    c.add_argument("--Cs", default="2,4,8,16")
    c.add_argument("--target", type=float, default=0.9)
    c.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    _add_common(c)
    c.set_defaults(func=cmd_scaling)

    return parser


def _parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config into CLI tokens placed before explicit flags."""
    if not argv or argv[0].startswith("-"):
        return argv
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    tokens: list[str] = []
    for key, val in _parse_config(path).items():
        flag = "--" + key.replace("_", "-")
        if val.lower() in ("true", "false"):
            if val.lower() == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, val])
    return [argv[0]] + tokens + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    argv = _inject_config(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
