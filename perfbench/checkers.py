"""Independent checks of the program's outputs.

Nothing here imports `pursuit` or `tests/oracles.py`: graphs arrive as
plain edge lists, positions and tables as callables, and every distance
is recomputed with a `collections.deque` BFS over sorted neighbour rows
built here from the edge list.  Each check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

COPS_TURN = 0
ROBBER_TURN = 1


# ---------------------------------------------------------------------------
# Graphs and BFS


def adjacency(n: int, edges) -> list[np.ndarray]:
    """Sorted neighbour rows of an undirected graph given as (u, v) pairs.

    Rows are views into one int32 array, which keeps a dense graph with
    10^6 edges at a few megabytes.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]]))
    counts = np.bincount(keys // n, minlength=n)
    return np.split((keys % n).astype(np.int32), np.cumsum(counts)[:-1])


def bfs(adj: list[np.ndarray], sources, max_depth: int | None = None) -> dict[int, int]:
    """Distances from a source set, stopping after `max_depth` layers."""
    dist = {int(s): 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for w in adj[u].tolist():
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def distance(adj: list[np.ndarray], src: int, dst: int, cap: int) -> int | None:
    """Graph distance src -> dst, or None when it exceeds `cap`."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= cap:
            break
        for w in adj[u].tolist():
            if w not in dist:
                if w == dst:
                    return du + 1
                dist[w] = du + 1
                queue.append(w)
    return None


def sphere_size(adj: list[np.ndarray], sources, r: int) -> int:
    return sum(1 for d in bfs(adj, sources, r).values() if d == r)


def check_simple_graph(n: int, edges) -> list[str]:
    """Every edge has 0 <= u < v < n and appears once."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    problems = []
    bad = np.flatnonzero((u < 0) | (u >= v) | (v >= n))
    if len(bad):
        first = pairs[bad[0]].tolist()
        problems.append(f"{len(bad)} edges not u < v within 0..{n - 1}, first {first}")
    keys = np.sort(u * n + v)
    repeats = int(np.count_nonzero(keys[1:] == keys[:-1]))
    if repeats:
        problems.append(f"{repeats} repeated edges")
    return problems


def chernoff_band(pairs: int, p: float, tail: float = 1e-9) -> tuple[float, float]:
    """Interval holding Bin(pairs, p) except with probability `tail`.

    Uses P(|X - mu| >= e*mu) <= 2 exp(-e^2 mu / 3) for e <= 1.
    """
    mu = pairs * p
    if mu <= 0:
        return 0.0, 0.0
    dev = math.sqrt(3.0 * mu * math.log(2.0 / tail))
    return mu - dev, mu + dev


def check_edge_count(n: int, p: float, m: int) -> list[str]:
    lo, hi = chernoff_band(n * (n - 1) // 2, p)
    if not lo <= m <= hi:
        return [f"{m} edges outside the Chernoff band [{lo:.0f}, {hi:.0f}] for n={n}, p={p}"]
    return []


# ---------------------------------------------------------------------------
# Games


def replay_game(adj: list[np.ndarray], trace: list[dict], winner: str,
                capture_time: int | None, horizon: int) -> list[str]:
    """Replay a game trace move by move on the neighbour rows.

    Checks placements, strict alternation (cops first), that every piece
    stays or steps along an edge, that play stops at the first capture,
    and that the recorded winner and capture time match the replay.
    """
    n = len(adj)
    if len(trace) < 2 or trace[0].get("actor") != "cops" or trace[1].get("actor") != "robber":
        return ["trace does not open with cop then robber placement"]
    cops = list(trace[0]["positions"])
    robber = trace[1]["position"]
    problems = [f"placement {v} out of range" for v in cops + [robber] if not 0 <= v < n]
    if not cops:
        problems.append("no cops placed")
    caught = 0 if robber in cops else None
    moves = 0
    expect = "cops"
    for i, entry in enumerate(trace[2:], start=2):
        if caught is not None:
            problems.append(f"entry {i}: move after capture")
            break
        actor = entry.get("actor")
        if entry.get("event") != "move" or actor != expect:
            problems.append(f"entry {i}: expected a {expect} move, got {actor}")
            break
        if actor == "cops":
            moves += 1
            frm, to = list(entry["from"]), list(entry["to"])
            if frm != cops or len(to) != len(cops):
                problems.append(f"entry {i}: cop positions do not continue the board")
            for a, b in zip(frm, to):
                if a != b and b not in adj[a]:
                    problems.append(f"entry {i}: cop moves {a}->{b} along a non-edge")
            cops = to
            expect = "robber"
        else:
            frm, to = entry["from"], entry["to"]
            if frm != robber:
                problems.append(f"entry {i}: robber 'from' does not continue the board")
            if frm != to and to not in adj[frm]:
                problems.append(f"entry {i}: robber moves {frm}->{to} along a non-edge")
            robber = to
            expect = "cops"
        if robber in cops:
            caught = moves
    if moves > horizon:
        problems.append(f"{moves} cop moves exceed the horizon {horizon}")
    want_winner = "cops" if caught is not None else "robber-survived"
    if winner != want_winner:
        problems.append(f"winner {winner!r} but the replay gives {want_winner!r}")
    if capture_time != caught:
        problems.append(f"capture time {capture_time} but the replay gives {caught}")
    return problems


def check_audit(adj: list[np.ndarray], audit: list[dict]) -> list[str]:
    """Every dispatch's recorded distance is the true one and within its allotment."""
    problems = []
    for e in audit:
        cap = max(e["allotted"], e["distance"])
        true = distance(adj, e["from"], e["dest"], cap)
        if true != e["distance"]:
            problems.append(f"dispatch {e}: BFS distance is {true if true is not None else f'> {cap}'}")
        elif e["distance"] > e["allotted"]:
            problems.append(f"dispatch {e}: distance exceeds the allotment")
    return problems


def dense_case(mean_degree: float, n: int) -> tuple[str, int]:
    """The dense strategy's documented split rule.

    r is the smallest radius with d^(r+1) >= sqrt(n); the case is
    "saturate" when d^(r+1) >= sqrt(n) log n, else "hold" when r = 0,
    else "sphere-relay".
    """
    root = math.sqrt(n)
    r = 0
    while mean_degree ** (r + 1) < root:
        r += 1
    if mean_degree ** (r + 1) >= root * math.log(max(n, 2)):
        return "saturate", r
    return ("hold" if r == 0 else "sphere-relay"), r


# ---------------------------------------------------------------------------
# Expansion reports


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_dense_report(adj: list[np.ndarray], probes: list[dict], checked: int,
                       skipped: int, lower_failures: int, c: float,
                       sample: list[int]) -> list[str]:
    """Re-derive the dense union-growth report.

    Every probe's floor, lower-bound verdict and regime (proportional
    ratio check or skipped) is recomputed; the union sizes of the probes
    at the indices in `sample` are recounted by BFS.
    """
    n = len(adj)
    d = sum(len(a) for a in adj) / n
    logn = math.log(n) if n > 1 else 1.0
    problems = []
    want_skipped = want_lower = 0
    for p in probes:
        sdr = len(p["s_set"]) * d ** p["r"]
        floor = c * min(sdr, n)
        if not close(floor, p["floor"]):
            problems.append(f"probe {p['s_set']}: floor {p['floor']} but recomputed {floor}")
        lower_ok = p["union_size"] >= floor
        if lower_ok != p["lower_ok"]:
            problems.append(f"probe {p['s_set']}: lower_ok {p['lower_ok']} disagrees")
        want_lower += not lower_ok
        if not (sdr < n / logn and p["r"] >= 1):
            want_skipped += 1
            if p.get("ratio") is not None:
                problems.append(f"probe {p['s_set']}: ratio reported outside its regime")
        elif p.get("ratio") is None or not close(p["ratio"], p["union_size"] / sdr):
            problems.append(f"probe {p['s_set']}: ratio {p.get('ratio')} disagrees")
    if checked != len(probes):
        problems.append(f"checked {checked} but {len(probes)} probes")
    if skipped != want_skipped:
        problems.append(f"skipped {skipped} but recomputed {want_skipped}")
    if lower_failures != want_lower:
        problems.append(f"lower_failures {lower_failures} but recomputed {want_lower}")
    for i in sample:
        p = probes[i]
        size = len(bfs(adj, p["s_set"], p["r"]))
        if size != p["union_size"]:
            problems.append(f"probe {p['s_set']} r={p['r']}: union {p['union_size']} but BFS gives {size}")
    return problems


def check_sparse_report(adj: list[np.ndarray], rep: dict, sample: list[int]) -> list[str]:
    """Re-derive the sparse sphere-growth report.

    `rep` carries the report's fields as plain values: d, eps, g (the
    reported g(eps)), radii, vertex_probes, union_probes, low_degree,
    erratic and per_condition.  The low-degree set, the sphere-lower and
    union conditions are recomputed in full; the global sphere cap is
    recomputed at its witness, at every erratic vertex and at the
    vertices in `sample`.
    """
    n = len(adj)
    d, eps, g, radii = rep["d"], rep["eps"], rep["g"], rep["radii"]
    cond = rep["per_condition"]
    logn = math.log(max(n, 3))
    problems = []
    if abs(g * (math.log(eps * g) - 1.0) + 0.5) > 1e-9:
        problems.append(f"g(eps)={g} does not solve x(log(eps x) - 1) = -1/2")
    cut = eps * g * d
    low = {v for v in range(n) if len(adj[v]) <= cut}
    if low != set(rep["low_degree"]):
        problems.append(f"low-degree set has {len(rep['low_degree'])} vertices, recomputed {len(low)}")

    def sizes(v: int) -> dict[int, int]:
        dist = bfs(adj, [v], max(radii))
        return {r: sum(1 for x in dist.values() if x == r) for r in radii}

    up = cond["sphere_upper"]
    if up["checked"] != n * len(radii):
        problems.append(f"sphere_upper checked {up['checked']} != n * {len(radii)}")
    fails = 0
    for v in sorted(set(rep["erratic"]) | set(sample)):
        at_v = sizes(v)
        bad = sum(1 for r, s in at_v.items() if s > 9.0 * d**r)
        fails += bad if v in rep["erratic"] else 0
        if (bad > 0) != (v in rep["erratic"]):
            problems.append(f"vertex {v}: erratic membership disagrees with its sphere sizes")
        if any(s / d**r > up["max_constant"] * (1 + 1e-9) for r, s in at_v.items()):
            problems.append(f"vertex {v}: sphere constant above the reported maximum")
    if up["passed"] != up["checked"] - fails:
        problems.append(f"sphere_upper passed {up['passed']} but recomputed {up['checked'] - fails}")
    w = up["witness"]
    if w is not None:
        if sphere_size(adj, [w["v"]], w["r"]) != w["size"]:
            problems.append(f"sphere_upper witness {w} has the wrong size")
        elif not close(w["size"] / d ** w["r"], up["max_constant"]):
            problems.append("sphere_upper max_constant does not match its witness")

    lo = {"checked": 0, "passed": 0, "skipped": 0}
    floor_const = (eps / math.e) ** 2
    min_const = math.inf
    for v, r in rep["vertex_probes"]:
        if v in low:
            lo["skipped"] += 1
            continue
        s = sphere_size(adj, [v], r)
        lo["checked"] += 1
        lo["passed"] += s > floor_const * d**r
        min_const = min(min_const, s / d**r)
    for key, val in lo.items():
        if cond["sphere_lower"][key] != val:
            problems.append(f"sphere_lower {key} {cond['sphere_lower'][key]} but recomputed {val}")
    if lo["checked"] and not close(min_const, cond["sphere_lower"]["min_constant"]):
        problems.append("sphere_lower min_constant disagrees")

    un = {"checked": 0, "passed": 0, "skipped": 0}
    lo_const = eps * g / 4.0
    consts = []
    for v, vprime, rp in rep["union_probes"]:
        vp = [x for x in vprime if x not in low]
        scale = len(vp) * d**rp
        if not vp or scale > n / logn:
            un["skipped"] += 1
            continue
        s = sphere_size(adj, vp, rp)
        un["checked"] += 1
        un["passed"] += lo_const * scale <= s <= 9.0 * scale
        consts.append(s / scale)
    for key, val in un.items():
        if cond["union"][key] != val:
            problems.append(f"union {key} {cond['union'][key]} but recomputed {val}")
    if consts and not (close(min(consts), cond["union"]["min_constant"])
                       and close(max(consts), cond["union"]["max_constant"])):
        problems.append("union constants disagree")
    return problems


def check_witness(adj: list[np.ndarray], u_set: list[int], t: int, c1: float, c2: float,
                  d: float, threshold: float, family: dict[int, set[int]]) -> list[str]:
    """Accessibility witness: disjoint W(w) around each w, large and within radius t."""
    n = len(adj)
    problems = []
    want = c1 * min(d**t, c2 * n / len(u_set))
    if not close(want, threshold):
        problems.append(f"threshold {threshold} but recomputed {want}")
    owner: dict[int, int] = {}
    for w in u_set:
        ws = family.get(w)
        if ws is None:
            problems.append(f"no reservoir for {w}")
            continue
        if len(ws) < want:
            problems.append(f"reservoir of {w} has {len(ws)} < {want}")
        near = bfs(adj, [w], t)
        for x in ws:
            if x in owner:
                problems.append(f"vertex {x} in the reservoirs of {owner[x]} and {w}")
            owner[x] = w
            if x not in near:
                problems.append(f"vertex {x} in W({w}) is farther than t={t}")
    return problems


# ---------------------------------------------------------------------------
# Exact solver tables


def closed_neighbourhoods(adj: list[np.ndarray]) -> list[list[int]]:
    return [sorted(a.tolist() + [v]) for v, a in enumerate(adj)]


def check_bellman(nbh: list[list[int]], positions, win, steps) -> list[str]:
    """Re-derive win and steps at the given positions from their successors.

    `positions` holds (cops, robber, turn) with cops a sorted tuple;
    `win(cops, r, turn)` and `steps(cops, r, turn)` read the table, steps
    being None where the cops do not win.  A capture position is won in
    0 steps; a cop-turn position is won when some successor multiset
    (every cop stays or steps, in any combination) wins, in one more step
    than the fastest; a robber-turn position is won when every robber
    reply wins, in as many steps as the slowest.
    """
    problems = []
    for cops, r, turn in positions:
        if r in cops:
            want = (True, 0)
        elif turn == COPS_TURN:
            succ = {tuple(sorted(c)) for c in itertools.product(*(nbh[c] for c in cops))}
            won = [steps(s, r, ROBBER_TURN) for s in succ if win(s, r, ROBBER_TURN)]
            want = (True, 1 + min(won)) if won else (False, None)
        else:
            replies = [(win(cops, x, COPS_TURN), steps(cops, x, COPS_TURN)) for x in nbh[r]]
            if all(w for w, _ in replies):
                want = (True, max(s for _, s in replies))
            else:
                want = (False, None)
        got = (win(cops, r, turn), steps(cops, r, turn))
        if got != want:
            problems.append(f"position {cops},{r},{'CR'[turn]}: table {got}, Bellman {want}")
    return problems


def check_placement(n: int, placement, capture_time: int, win, steps) -> list[str]:
    """A winning placement wins against every robber start, in the stated time."""
    if not all(win(placement, r, COPS_TURN) for r in range(n)):
        return [f"placement {placement} loses against some robber start"]
    worst = max(steps(placement, r, COPS_TURN) for r in range(n))
    if worst != capture_time:
        return [f"placement {placement}: capture time {capture_time}, table worst case {worst}"]
    return []
