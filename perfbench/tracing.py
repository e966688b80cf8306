"""Wrappers the benchmark installs on `pursuit`'s public functions.

`Capture` keeps the return values of the calls the CLI makes (the graph,
the game result, the expansion reports) so the checkers can audit what a
CLI command printed.  It does no timing and stays installed for a whole
run, traced or not.

`Tracer` records one span per call into a layer's public function: name,
parent span, start, end and the counts at that boundary.  Spans stay in
memory until the run ends.  Each wrapper goes where the caller looks the
name up, because `from .graph import bfs_distances` binds a separate name
in every importing module.  Tracing is installed only around traced ops.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (owner, attribute, span name).  An owner "module:Class" patches a method.
SPAN_TARGETS = [
    ("pursuit.cli", "gnp", "models.gnp"),
    ("pursuit.models", "from_edges", "graph.from_edges"),
    ("pursuit.graph", "from_edges", "graph.from_edges"),
    ("pursuit.graph", "bfs_distances", "graph.bfs"),
    ("pursuit.graph", "bfs_layers", "graph.bfs"),
    ("pursuit.strategies", "bfs_distances", "graph.bfs"),
    ("pursuit.matching", "bfs_distances", "graph.bfs"),
    ("pursuit.expansion", "bfs_distances", "graph.bfs"),
    ("pursuit.expansion", "bfs_layers", "graph.bfs"),
    ("pursuit.strategies", "two_nearest_source_distances", "graph.two_nearest"),
    ("pursuit.strategies", "assign_within_radius", "matching.assign"),
    ("pursuit.matching", "max_matching", "matching.max_matching"),
    ("pursuit.strategies:DenseStrategy", "move", "strategies.cop_move"),
    ("pursuit.strategies:SparseStrategy", "move", "strategies.cop_move"),
    ("pursuit.strategies:GreedyRobber", "choose", "strategies.robber"),
    ("pursuit.strategies:GreedyRobber", "move", "strategies.robber"),
    ("pursuit.strategies", "build_disjoint_sphere_family", "expansion.family"),
    ("pursuit.strategies", "grow_disjoint_family", "expansion.family"),
    ("pursuit.cli", "play", "game.play"),
    ("pursuit.cli", "dense_probes", "expansion.probe_gen"),
    ("pursuit.cli", "sparse_probes", "expansion.probe_gen"),
    ("pursuit.cli", "verify_dense_lower", "expansion.dense"),
    ("pursuit.cli", "sparse_report", "expansion.sparse"),
    ("pursuit.cli", "accessibility_check", "expansion.witness"),
    ("pursuit.cli", "verify_witness", "expansion.witness"),
    ("pursuit.solver", "solve_k", "solver.solve"),
    ("pursuit.solver:PositionTable", "best_placement", "solver.best_placement"),
]

# The span every op runs under; its self time is the op's time outside
# every layer span.
ROOT = "cli"


def _settled(args, out) -> dict:
    if isinstance(out, list):  # bfs_layers
        return {"graph.bfs.settled": sum(len(layer) for layer in out)}
    return {"graph.bfs.settled": int(np.count_nonzero(out >= 0))}


def _assign(args, out) -> dict:
    problem = args[1]
    return {
        "matching.assign.pairs": len(problem.x_vertices) * len(problem.y_vertices),
        "matching.assign.deficiency": out.deficiency,
    }


def _probes(args, out) -> dict:
    if isinstance(out, list):  # dense_probes
        return {"expansion.probes": len(out)}
    return {"expansion.probes": len(out.vertex_probes) + len(out.union_probes)}


COUNTERS = {
    "graph.from_edges": lambda args, out: {"graph.from_edges.edges": out.num_edges},
    "graph.bfs": _settled,
    "matching.assign": _assign,
    "game.play": lambda args, out: {
        "game.cop_moves": sum(1 for e in out.trace if e["event"] == "move" and e["actor"] == "cops")
    },
    "expansion.probe_gen": _probes,
    "solver.solve": lambda args, out: {"solver.positions": len(out.win)},
}

# Per-layer metrics, all means per traced op: (name, unit).
PER_LAYER = [
    ("models.gnp.s", "s"),
    ("graph.from_edges.s", "s"),
    ("graph.from_edges.edges", "count"),
    ("graph.bfs.s", "s"),
    ("graph.bfs.calls", "count"),
    ("graph.bfs.settled", "count"),
    ("graph.two_nearest.s", "s"),
    ("graph.two_nearest.calls", "count"),
    ("matching.assign.s", "s"),
    ("matching.assign.calls", "count"),
    ("matching.assign.pairs", "count"),
    ("matching.assign.deficiency", "count"),
    ("matching.max_matching.s", "s"),
    ("strategies.cop_move.s", "s"),
    ("strategies.cop_move.calls", "count"),
    ("strategies.robber.s", "s"),
    ("strategies.robber.calls", "count"),
    ("expansion.family.s", "s"),
    ("game.play.s", "s"),
    ("game.cop_moves", "count"),
    ("expansion.dense.s", "s"),
    ("expansion.sparse.s", "s"),
    ("expansion.witness.s", "s"),
    ("expansion.probe_gen.s", "s"),
    ("expansion.probes", "count"),
    ("solver.solve.s", "s"),
    ("solver.positions", "count"),
    ("solver.best_placement.s", "s"),
    ("cli.self.s", "s"),
    ("trace.overhead_s", "s"),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _Patches:
    """Replaces attributes and puts the originals back on close."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


CAPTURED = ["gnp", "play", "dense_probes", "verify_dense_lower", "sparse_probes",
            "sparse_report", "accessibility_check"]


class Capture:
    """Keeps (name, args, kwargs, result) of the CLI's calls into the library."""

    def __init__(self):
        self.records: list[tuple[str, tuple, dict, object]] = []
        self._patches = _Patches()

    def __enter__(self) -> "Capture":
        cli = _owner("pursuit.cli")
        for attr in CAPTURED:
            self._patches.replace(cli, attr, functools.partial(self._recorder, attr))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    def _recorder(self, attr: str, fn):
        records = self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            records.append((attr, args, kwargs, out))
            return out

        return wrapper

    def find(self, attr: str) -> list[tuple[tuple, dict, object]]:
        return [(a, k, out) for name, a, k, out in self.records if name == attr]


class Tracer:
    """In-memory spans: [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for owner, attr, name in SPAN_TARGETS:
            self._patches.replace(_owner(owner), attr, functools.partial(self._wrap, name))

    def uninstall(self) -> None:
        self._patches.close()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, out)
            return out

        return wrapper

    def op_totals(self, first: int) -> dict[str, float]:
        """Per-layer totals (metric -> value) of the op whose root span is `first`.

        A span's self time is its duration minus its children's, so the
        self times of one op sum to its root span's duration.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans[1:]:
            child[parent - first] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, counts) in enumerate(spans):
            key = "cli.self" if name == ROOT else name
            totals[key + ".s"] += end - start - child[i]
            totals[name + ".calls"] += 1
            for metric, value in (counts or {}).items():
                totals[metric] += value
        return totals
