"""Exact game solver: retrograde analysis over the full position space.

A position is (sorted cop multiset, robber vertex, side to move).  Cops
move first each round, every piece may stay in place, and several cops
may share a vertex.  The solver sweeps backwards from capture positions:
a cop-turn position is winning when some successor is, a robber-turn
position when all successors are, tracked with per-position out-degree
counters so the fixpoint is linear in position-graph edges.  Steps count
cop moves, so steps_to_capture at a cop-turn position is the optimal
capture time from there.

The sweep runs on arrays.  Cop multisets are ranked combinatorially in
lexicographic order, cop moves are a CSR of ranks, and each level
expands only the positions won at the level before, in chunks of at
most CHUNK successor entries; the relational fixpoint of Clarke and
MacGillivray ("Characterizations of k-copwin graphs", Discrete Math.
2012) read as frontier scatters.

Initial placement is quantified outside the table: cops pick the
multiset minimizing the worst robber reply.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .graph import GraphView

__all__ = [
    "PositionTable",
    "BudgetError",
    "solve_k",
    "cop_number",
    "optimal_capture_time",
    "is_copwin_dismantlable",
    "DEFAULT_POSITION_BUDGET",
]

DEFAULT_POSITION_BUDGET = 50_000_000

COPS_TURN = 0
ROBBER_TURN = 1

# Successor entries expanded per scatter.  It bounds a level's
# temporaries: on grid-6x6 with k = 3, whole-level expansion peaked at
# 261 MB resident against 56 MB, and ran slower.
CHUNK = 1 << 16

# a step label of -1 (robber escapes) read as uint32
ESCAPED = np.iinfo(np.uint32).max


class BudgetError(RuntimeError):
    """Position space exceeds the stated budget."""


class CopMultisets(Sequence):
    """The C(n+k-1, k) sorted cop tuples in lexicographic order.

    Rank i is the i-th tuple of itertools.combinations_with_replacement.
    A tuple's rank counts the tuples below it: those that agree with it
    before some slot i and are smaller in slot i.  The count telescopes
    into one lookup per slot, rank = sum_i weight[i][c_i].
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.array = _lex_multisets(n, k)

    @cached_property
    def _weights(self) -> list[list[int]]:
        n, k = self.n, self.k
        # below[i][v]: suffixes from slot i on whose slot i holds some
        # u < v, the later slots free in [u, n)
        below = [[0] * (n + 1) for _ in range(k + 1)]
        for i in range(k):
            for v in range(n):
                below[i][v + 1] = below[i][v] + math.comb(n - v + k - i - 2, k - i - 1)
        return [[below[i][v] - below[i + 1][v] for v in range(n)] for i in range(k)]

    @cached_property
    def _weight_array(self) -> np.ndarray:
        return np.array(self._weights, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, ci: int) -> tuple[int, ...]:
        return tuple(self.array[ci].tolist())

    def rank(self, cols: list[np.ndarray]) -> np.ndarray:
        """Ranks of sorted tuples given as k columns, slot by slot."""
        return sum(w[c] for w, c in zip(self._weight_array, cols))

    def index(self, cops) -> int:
        key = sorted(int(c) for c in cops)
        if len(key) != self.k or not all(0 <= c < self.n for c in key):
            raise ValueError(f"not a valid cop multiset: {cops}")
        return sum(w[c] for w, c in zip(self._weights, key))


def _lex_multisets(n: int, k: int) -> np.ndarray:
    """(C(n+k-1, k), k) array of sorted tuples in lexicographic order."""
    rows = np.arange(n)[:, None]
    for _ in range(k - 1):
        # each tuple is followed by every value from its last one up
        last = rows[:, -1]
        counts = n - last
        ends = counts.cumsum()
        col = np.arange(ends[-1]) - (ends - counts - last).repeat(counts)
        rows = np.column_stack([rows.repeat(counts, axis=0), col])
    return rows


def _closed_neighbourhoods(g: GraphView) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of N[v] = {v} ∪ N(v), rows sorted, and each entry's row."""
    n = g.n
    indptr, indices = g.csr()
    keys = np.concatenate([
        np.arange(n).repeat(indptr[1:] - indptr[:-1]) * n + indices,
        np.arange(0, n * n, n + 1),
    ])
    keys.sort()
    row, col = np.divmod(keys, n)
    return indptr + np.arange(n + 1), col, row


def _cop_moves(ms: CopMultisets, closed):
    """CSR of successor ranks: row ci lists, ascending, every multiset the
    cops at ms[ci] reach in one move (each cop stays or steps).  Returns
    (indptr, ranks, row of each entry), like `closed`."""
    if ms.k == 1:
        return closed
    cptr, cidx, _ = closed
    table = ms.array
    m = len(table)
    per = (cptr[1:] - cptr[:-1])[table]  # (M, k) choices per cop
    combos = per.prod(axis=1)
    ends = combos.cumsum()
    keys = []
    a = 0
    while a < m:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - combos[a] + CHUNK, "right")))
        p = combos[a:b]
        owner = np.arange(a, b).repeat(p)
        # mixed-radix digits of each combination's index within its row
        t = np.arange(int(p.sum())) - (p.cumsum() - p).repeat(p)
        cols = [None] * ms.k
        stride = np.ones_like(t)
        for i in reversed(range(ms.k)):
            radix = per[owner, i]
            cols[i] = cidx[cptr[table[owner, i]] + (t // stride) % radix]
            stride *= radix
        # sorting network: bubble the columns into nondecreasing order
        for top in range(ms.k - 1, 0, -1):
            for i in range(top):
                lo, hi = cols[i], cols[i + 1]
                cols[i], cols[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
        key = owner * m + ms.rank(cols)
        key.sort()
        keys.append(key[np.concatenate([[True], key[1:] != key[:-1]])])
        a = b
    keys = np.concatenate(keys)
    rows, ranks = np.divmod(keys, m)
    ptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=m), out=ptr[1:])
    return ptr, ranks, rows


def _expand(front, rows, ends_of_row, deg, delta):
    """Each frontier state plus the deltas of its CSR row, concatenated."""
    d = deg[rows]
    ends = d.cumsum()
    idx = np.arange(ends[-1]) + (ends_of_row[rows] - ends).repeat(d)
    return front.repeat(d) + delta[idx]


def _claim(side: np.ndarray, states: np.ndarray, level: int) -> np.ndarray:
    """Label unlabelled states with `level`; return them without repeats."""
    if not len(states):
        return states
    # every copy writes its own id; the copy whose id stuck stands for the state
    ids = np.arange(-2, -2 - len(states), -1, dtype=side.dtype)
    side[states] = ids
    states = states[side[states] == ids]
    side[states] = level
    return states


def _retrograde(ms: CopMultisets, n: int, closed, moves) -> np.ndarray:
    """steps[(ci*n + r)*2 + turn]: cop moves to capture, -1 where the robber wins.

    State ci*n + r stands for both turns; its cop-turn and robber-turn
    labels are the even and odd entries of the returned array.
    """
    m = len(ms)
    cptr, cidx, crow = closed
    sptr, sidx, srow = moves
    cdeg = cptr[1:] - cptr[:-1]
    sdeg = sptr[1:] - sptr[:-1]
    # a cop-turn win at state s counts against the robber-turn states
    # s + cdelta[e] over its robber's row; a robber-turn win at s makes
    # the cop-turn states s + sdelta[e] over its multiset's row win
    cdelta = cidx - crow
    sdelta = (sidx - srow) * n
    cmax = int(cdeg.max())
    cstep = max(1, CHUNK // cmax)
    sstep = max(1, CHUNK // int(sdeg.max()))

    steps = np.full(2 * m * n, -1, dtype=np.int32)
    cop = steps[COPS_TURN::2]
    rob = steps[ROBBER_TURN::2]
    table = ms.array
    own = np.ones(table.shape, dtype=bool)
    own[:, 1:] = table[:, 1:] != table[:, :-1]
    captured = (np.arange(0, m * n, n)[:, None] + table)[own]
    cop[captured] = 0
    rob[captured] = 0
    # robber-turn states: replies not yet won by the cops; a captured
    # state starts one higher, so it never reaches 0
    left = np.empty((m, n), dtype=np.min_scalar_type(cmax + 1))
    left[:] = cdeg
    left = left.reshape(-1)
    left[captured] += 1
    # a scalar of left's own dtype keeps subtract.at on its fast path
    one = left.dtype.type(1)

    front = captured  # cop-turn states won at `level`
    won_rob = captured  # robber-turn states won at `level` before the cop sweep
    level = 0
    while len(front):
        won = [won_rob]
        for i in range(0, len(front), cstep):
            f = front[i:i + cstep]
            t = _expand(f, f % n, cptr[1:], cdeg, cdelta)
            np.subtract.at(left, t, one)
            won.append(_claim(rob, t[left[t] == 0], level))
        won_rob = np.concatenate(won)
        nxt = [won_rob[:0]]
        for i in range(0, len(won_rob), sstep):
            f = won_rob[i:i + sstep]
            u = _expand(f, f // n, sptr[1:], sdeg, sdelta)
            nxt.append(_claim(cop, u[cop[u] < 0], level + 1))
        front = np.concatenate(nxt)
        won_rob = won_rob[:0]
        level += 1
    return steps


class PositionTable:
    """Solved game table for k cops on a fixed graph.

    Position p = (ci*n + robber)*2 + turn, ci the rank of the cop
    multiset in `multisets`.  `win` and `steps` are read-only memoryviews:
    `win[p]` is a bool, `steps[p]` an int (-1 where the robber escapes),
    and two tables compare equal with `==`.
    """

    def __init__(self, g: GraphView, k: int, multisets: CopMultisets,
                 succ_ptr: np.ndarray, succ: np.ndarray, steps: np.ndarray):
        self.g = g
        self.k = k
        self.multisets = multisets
        self.succ_ptr = succ_ptr
        self.succ = succ
        win = steps >= 0
        for a in (steps, win, succ_ptr, succ):
            a.setflags(write=False)
        self.win = memoryview(win)
        self.steps = memoryview(steps)
        # (M, n) cop-turn labels, -1 where the robber escapes
        self._cop_steps = steps.reshape(len(multisets), g.n, 2)[:, :, COPS_TURN]

    @cached_property
    def nbh(self) -> list[list[int]]:
        """Closed neighbourhoods N[v], sorted."""
        return [sorted([v, *self.g.adjacency(v).tolist()]) for v in range(self.g.n)]

    def pos(self, ci: int, robber: int, turn: int) -> int:
        return (ci * self.g.n + robber) * 2 + turn

    def index_of(self, cops: tuple[int, ...]) -> int:
        return self.multisets.index(cops)

    def cop_successors(self, ci: int) -> np.ndarray:
        """Ranks the cops at multisets[ci] reach in one move, ascending."""
        return self.succ[self.succ_ptr[ci]:self.succ_ptr[ci + 1]]

    def is_win(self, cops: tuple[int, ...], robber: int, turn: int) -> bool:
        return self.win[self.pos(self.index_of(cops), robber, turn)]

    def steps_to_capture(self, cops: tuple[int, ...], robber: int, turn: int) -> int | None:
        s = self.steps[self.pos(self.index_of(cops), robber, turn)]
        return None if s < 0 else s

    def _worst_replies(self) -> np.ndarray:
        """Per multiset, its worst capture time over robber starts; read
        as unsigned, an escape (-1) is the largest value, ESCAPED."""
        return self._cop_steps.view(np.uint32).max(axis=1)

    def winning_placements(self) -> list[tuple[int, ...]]:
        """Cop multisets that win against every robber reply."""
        ok = np.flatnonzero(self._worst_replies() != ESCAPED)
        return [self.multisets[ci] for ci in ok.tolist()]

    def best_placement(self) -> tuple[tuple[int, ...], int] | None:
        """(placement, capture time) minimizing the worst robber reply;
        the lowest-ranked placement among equals."""
        worst = self._worst_replies()
        ci = int(worst.argmin())
        if worst[ci] == ESCAPED:
            return None
        return self.multisets[ci], int(worst[ci])

    def check_consistency(self) -> list[str]:
        """Re-verify the Bellman equations at every position.

        Cop successors are derived here from `nbh` by enumeration, not
        read from the solver's move table, which is checked against them.
        """
        n = self.g.n
        nbh = self.nbh
        bad: list[str] = []
        for ci, ms in enumerate(self.multisets):
            if self.index_of(ms) != ci:
                bad.append(f"multiset {ms} ranked {self.index_of(ms)}, listed at {ci}")
            moves = sorted({self.index_of(tuple(sorted(c)))
                            for c in itertools.product(*(nbh[c] for c in ms))})
            if self.cop_successors(ci).tolist() != moves:
                bad.append(f"cop moves from {ms}: table {self.cop_successors(ci).tolist()}, "
                           f"enumerated {moves}")
            captured = set(ms)
            for r in range(n):
                for turn in (COPS_TURN, ROBBER_TURN):
                    p = (ci * n + r) * 2 + turn
                    if r in captured:
                        if not self.win[p] or self.steps[p] != 0:
                            bad.append(f"capture position {ms},{r},{turn} mislabeled")
                        continue
                    if turn == COPS_TURN:
                        succ = [(cj * n + r) * 2 + ROBBER_TURN for cj in moves]
                        wins = [self.steps[q] for q in succ if self.win[q]]
                        expect_win = bool(wins)
                        expect_steps = 1 + min(wins) if wins else -1
                    else:
                        succ = [(ci * n + rr) * 2 + COPS_TURN for rr in nbh[r]]
                        all_win = all(self.win[q] for q in succ)
                        expect_win = all_win
                        expect_steps = max(self.steps[q] for q in succ) if all_win else -1
                    if self.win[p] != expect_win or self.steps[p] != expect_steps:
                        bad.append(
                            f"position {ms},{r},{'CR'[turn]}: "
                            f"stored win={self.win[p]} steps={self.steps[p]}, "
                            f"recomputed win={expect_win} steps={expect_steps}"
                        )
        return bad


def solve_k(
    g: GraphView, k: int, position_budget: int = DEFAULT_POSITION_BUDGET
) -> PositionTable:
    """Solve the k-cop game on g by backward induction."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    total_positions = math.comb(n + k - 1, k) * n * 2
    if total_positions > position_budget:
        raise BudgetError(
            f"{total_positions} positions exceed budget {position_budget} "
            f"(n={n}, k={k})"
        )
    multisets = CopMultisets(n, k)
    closed = _closed_neighbourhoods(g)
    moves = _cop_moves(multisets, closed)
    steps = _retrograde(multisets, n, closed, moves)
    return PositionTable(g, k, multisets, moves[0], moves[1], steps)


def cop_number(
    g: GraphView, k_max: int | None = None, position_budget: int = DEFAULT_POSITION_BUDGET
) -> int:
    """Least k such that k cops have a winning placement.

    For a disconnected graph the answer is the sum over components of
    their cop numbers; this implementation solves the whole graph
    directly, which gives the same value, and k_max caps the search
    (default n).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    cap = g.n if k_max is None else k_max
    for k in range(1, cap + 1):
        table = solve_k(g, k, position_budget=position_budget)
        if table.winning_placements():
            return k
    raise ValueError(f"no winning placement with up to {cap} cops")


def optimal_capture_time(
    g: GraphView, k: int, position_budget: int = DEFAULT_POSITION_BUDGET
) -> int:
    """Optimal capture time for k cops under best play on both sides."""
    table = solve_k(g, k, position_budget=position_budget)
    best = table.best_placement()
    if best is None:
        raise ValueError(f"{k} cops do not win on this graph")
    return best[1]


def is_copwin_dismantlable(g: GraphView) -> bool:
    """Whether iterated corner removal dismantles g to one vertex.

    A corner is a vertex u with N[u] <= N[v] for some other live v; the
    lowest-id corner is removed each round.  Equivalent to the one-cop
    game being a cop win.
    """
    n = g.n
    if n == 0:
        return False
    masks = {}
    for v in range(n):
        m = 1 << v
        for w in g.adjacency(v):
            m |= 1 << int(w)
        masks[v] = m
    alive = set(range(n))
    while len(alive) > 1:
        corner = None
        for u in sorted(alive):
            mu = masks[u]
            if any(v != u and (mu & ~masks[v]) == 0 for v in alive):
                corner = u
                break
        if corner is None:
            return False
        alive.remove(corner)
        bit = ~(1 << corner)
        for v in alive:
            masks[v] &= bit
    return True
