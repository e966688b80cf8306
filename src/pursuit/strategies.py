"""Cop strategies (dense and sparse regimes), baselines, and robber policies.

The two headline strategies realize probabilistic team constructions as
concrete policies: teams are sampled from seeded streams, destinations
are claimed through disjoint-reservoir or radius-capped matching, cops
walk shortest paths and hold, and a clean-up crew progressively corners
a robber that hides inside the current ball.  When a probabilistic step
fails on the sampled instance (an empty reservoir, an infeasible
matching), the failure is recorded in the game metadata and play
continues; missing cops are data, not a crash.

Stream layout (documented so trials are reproducible):
  dense:  stream(seed, 1)=team one, 2=auxiliary, 3=team two, 4=clean-up
  sparse: substream(seed, i)=team i (1-based), substream(seed, 0)=clean-up

Every cop, regardless of plan, steps onto the robber whenever she is
adjacent at its turn; a cop landing on her vertex ends the game, so the
grab never costs a post.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import seeds
from .game import GameState
from .graph import (
    GraphView,
    bfs_distances,
    bfs_per_source,
    shortest_path,
    two_nearest_source_distances,
)
from .matching import AssignmentProblem, assign_within_radius
from .expansion import build_disjoint_sphere_family, grow_disjoint_family
from .solver import COPS_TURN, ROBBER_TURN, PositionTable

__all__ = [
    "DenseStrategyConfig",
    "RadiusSchedule",
    "ScheduleError",
    "RoundState",
    "dense_radius",
    "radius_schedule",
    "dense_strategy",
    "sparse_strategy",
    "robber_greedy",
    "robber_optimal",
    "cop_greedy",
    "cop_optimal",
    "GreedyRobber",
    "TableRobber",
    "GreedyCops",
    "TableCops",
    "DenseStrategy",
    "SparseStrategy",
]


# ---------------------------------------------------------------------------
# Shared machinery


class _Cop:
    __slots__ = ("cid", "pos", "path", "role")

    def __init__(self, cid: int, pos: int, role: str):
        self.cid = cid
        self.pos = pos
        self.path: list[int] = []
        self.role = role


class _TeamStrategy:
    """Base for team strategies: registry, walking, and the grab rule."""

    def __init__(self, g: GraphView):
        self.g = g
        self.cops: list[_Cop] = []
        self.meta: dict = {"failures": [], "assignment_audit": []}

    def _add_team(self, positions, role: str) -> list[_Cop]:
        out = []
        for p in positions:
            cop = _Cop(len(self.cops), int(p), role)
            self.cops.append(cop)
            out.append(cop)
        return out

    def _dispatch(self, cop: _Cop, dest: int, cap: int, audit: bool = True) -> bool:
        # BFS from dest, so ties descend to the smallest-id neighbor; the
        # walk is the path reversed, without the cop's own vertex
        path = shortest_path(self.g, dest, cop.pos, max_depth=cap)
        if path is None:
            self.meta["failures"].append(
                {"kind": "unreachable", "cop": cop.cid, "dest": dest, "cap": cap}
            )
            return False
        cop.path = path[-2::-1]
        if audit:
            self.meta["assignment_audit"].append(
                {"cop": cop.cid, "from": cop.pos, "dest": dest,
                 "distance": len(cop.path), "allotted": cap}
            )
        return True

    def _step_all(self, robber: int) -> list[int]:
        """Advance walkers one edge; anyone adjacent to the robber grabs."""
        row = set(int(x) for x in self.g.adjacency(robber))
        grabbed = False
        out = []
        for cop in self.cops:
            if not grabbed and cop.pos in row:
                cop.pos = robber
                cop.path = []
                grabbed = True
            elif cop.path:
                cop.pos = cop.path.pop(0)
            out.append(cop.pos)
        return out

    def positions(self) -> list[int]:
        return [c.pos for c in self.cops]

    def metadata(self) -> dict:
        return dict(self.meta)


def _sample_team(n: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    if prob >= 1.0:
        return np.arange(n, dtype=np.int64)
    return np.flatnonzero(rng.random(n) < prob)


# ---------------------------------------------------------------------------
# Dense regime


def dense_radius(d: float, n: int) -> int:
    """Smallest r >= 0 with d^(r+1) >= sqrt(n); satisfies d^r < sqrt(n)."""
    if d < 1.0:
        raise ValueError("needs average degree >= 1")
    if n < 1:
        raise ValueError("n must be positive")
    root = math.sqrt(n)
    if d == 1.0:
        if root <= 1.0:
            return 0
        raise ValueError("degree 1 cannot reach sqrt(n)")
    r = 0
    while d ** (r + 1) < root:
        r += 1
    return r


@dataclass(frozen=True)
class DenseStrategyConfig:
    """Team density C (per-vertex probability C/sqrt(n)) and the seed."""

    C: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")


class DenseStrategy(_TeamStrategy):
    """Ball-occupation strategy for graphs with large average degree.

    With r the smallest radius where d^(r+1) >= sqrt(n), the plan splits
    on how much room there is above sqrt(n):

    * case "saturate" (d^(r+1) >= sqrt(n) log n): one team occupies the
      whole ball N(v, r) within r+1 steps of the robber appearing at v.
    * case "hold" (r = 0, sqrt(n) <= d < sqrt(n) log n): the first team
      stands still and dominates all of S(v,1) except a small set S; a
      second team covers S + {v} within two steps.
    * case "sphere-relay" (r >= 1): the first team claims one cop inside
      each reservoir W(u), u in S(v,r); an auxiliary team guards N(v,r)
      at radius r+2 against a hiding robber; when the robber first hits
      distance floor(r/2), a second team covers the spheres around the
      uncovered exits; a clean-up team floods the last small ball.
    """

    def __init__(self, g: GraphView, cfg: DenseStrategyConfig):
        super().__init__(g)
        self.cfg = cfg
        n = g.n
        self.d = g.mean_degree()
        self.r = dense_radius(self.d, n)
        root = math.sqrt(n)
        logn = math.log(max(n, 2))
        thr = self.d ** (self.r + 1)
        if thr >= root * logn:
            self.case = "saturate"
        elif self.r == 0:
            self.case = "hold"
        else:
            self.case = "sphere-relay"
        self.prob = min(1.0, cfg.C / root)
        self.meta.update(
            {
                "strategy": "dense",
                "case": self.case,
                "r": self.r,
                "d": self.d,
                "C": cfg.C,
                "omega": thr / root,
            }
        )
        self.planned = False
        self.team1: list[_Cop] = []
        self.team2: list[_Cop] = []
        self.aux: list[_Cop] = []
        self.cleanup: list[_Cop] = []
        self.holes: set[int] = set()
        self.anchor = -1
        self.anchor_dist: np.ndarray | None = None
        self.team2_done = False
        self.cleanup_done = False

    def place(self, g: GraphView) -> list[int]:
        cfg = self.cfg
        self.team1 = self._add_team(_sample_team(g.n, self.prob, seeds.stream(cfg.seed, 1)), "team1")
        if self.case == "hold":
            self.team2 = self._add_team(_sample_team(g.n, self.prob, seeds.stream(cfg.seed, 3)), "team2")
        elif self.case == "sphere-relay":
            self.aux = self._add_team(_sample_team(g.n, self.prob, seeds.stream(cfg.seed, 2)), "aux")
            self.team2 = self._add_team(_sample_team(g.n, self.prob, seeds.stream(cfg.seed, 3)), "team2")
            self.cleanup = self._add_team(
                _sample_team(g.n, self.prob, seeds.stream(cfg.seed, 4)), "cleanup"
            )
        self.meta["teams"] = {
            "team1": len(self.team1),
            "team2": len(self.team2),
            "aux": len(self.aux),
            "cleanup": len(self.cleanup),
        }
        self.meta["budget_total"] = len(self.cops)
        if not self.cops:
            # an empty sample cannot even form a game; report and place a
            # token nowhere-useful cop so the engine has a piece to move
            self.meta["failures"].append({"kind": "empty-sample"})
            self.team1 = self._add_team([0], "team1")
            self.meta["budget_total"] = len(self.cops)
        return self.positions()

    # -- planning pieces

    def _anchor_ball(self) -> np.ndarray:
        """Mask of N(anchor, r); unreachable vertices (distance -1) stay out."""
        return (self.anchor_dist >= 0) & (self.anchor_dist <= self.r)

    def _plan_saturate(self, v: int) -> None:
        targets = sorted(int(x) for x in np.flatnonzero(self._anchor_ball()))
        ys = tuple(c.pos for c in self.team1)
        res = assign_within_radius(self.g, AssignmentProblem(tuple(targets), ys, self.r + 1))
        if not res.feasible:
            self.meta["failures"].append(
                {"kind": "ball-cover-deficient", "deficiency": res.deficiency,
                 "violation": list(res.violation)}
            )
        for dest, slot in res.assignment.items():
            self._dispatch(self.team1[slot], dest, self.r + 1)

    def _plan_hold(self, v: int) -> None:
        team1_pos = {c.pos for c in self.team1}
        undominated = []
        for u in sorted(int(x) for x in np.flatnonzero(self.anchor_dist == 1)):
            if u in team1_pos:
                continue
            if any(int(w) in team1_pos for w in self.g.adjacency(u)):
                continue
            undominated.append(u)
        targets = tuple(sorted(set(undominated) | {v}))
        self.meta["undominated"] = len(undominated)
        ys = tuple(c.pos for c in self.team2)
        res = assign_within_radius(self.g, AssignmentProblem(targets, ys, 2))
        if not res.feasible:
            self.meta["failures"].append(
                {"kind": "hold-cover-deficient", "deficiency": res.deficiency,
                 "violation": list(res.violation)}
            )
        for dest, slot in res.assignment.items():
            self._dispatch(self.team2[slot], dest, 2)
        # team one stands still; the grab rule does the capturing

    def _plan_sphere_relay(self, v: int) -> None:
        fam = build_disjoint_sphere_family(self.g, v, self.r)
        by_pos = {}
        for cop in self.team1:
            by_pos.setdefault(cop.pos, []).append(cop)
        taken: set[int] = set()
        covered = []
        for u in sorted(fam.family):
            picked = None
            for w in sorted(fam.family[u]):
                for cop in by_pos.get(w, ()):  # first free cop sitting in W(u)
                    if cop.cid not in taken:
                        picked = cop
                        break
                if picked:
                    break
            if picked is None:
                continue
            taken.add(picked.cid)
            if self._dispatch(picked, u, self.r + 1):
                covered.append(u)
        sphere_v = set(int(x) for x in np.flatnonzero(self.anchor_dist == self.r))
        self.holes = sphere_v - set(covered)
        self.meta["sphere_size"] = len(sphere_v)
        self.meta["holes"] = len(self.holes)
        # auxiliary guard of the whole ball at radius r+2
        targets = tuple(sorted(int(x) for x in np.flatnonzero(self._anchor_ball())))
        ys = tuple(c.pos for c in self.aux)
        res = assign_within_radius(self.g, AssignmentProblem(targets, ys, self.r + 2))
        if not res.feasible:
            self.meta["failures"].append(
                {"kind": "aux-cover-deficient", "deficiency": res.deficiency}
            )
        for dest, slot in res.assignment.items():
            self._dispatch(self.aux[slot], dest, self.r + 2)

    def _release_team2(self, z: int) -> None:
        half_up = (self.r + 1) // 2
        half_dn = self.r // 2
        zdist = bfs_distances(self.g, [z], max_depth=half_up)
        exits = sorted(u for u in self.holes if zdist[u] == half_up)
        union: set[int] = set()
        for s in exits:
            sd = bfs_distances(self.g, [s], max_depth=half_dn + 1)
            union.update(int(x) for x in np.flatnonzero(sd == half_dn + 1))
        self.meta["relay_exit_count"] = len(exits)
        self.meta["relay_union_size"] = len(union)
        ys = tuple(c.pos for c in self.team2)
        res = assign_within_radius(self.g, AssignmentProblem(tuple(sorted(union)), ys, self.r + 2))
        if not res.feasible:
            self.meta["failures"].append(
                {"kind": "relay-cover-deficient", "deficiency": res.deficiency}
            )
        for dest, slot in res.assignment.items():
            self._dispatch(self.team2[slot], dest, self.r + 2)

    def _release_cleanup(self, s: int) -> None:
        half_dn = self.r // 2
        sd = bfs_distances(self.g, [s], max_depth=half_dn + 1)
        targets = tuple(sorted(int(x) for x in np.flatnonzero(sd >= 0)))
        ys = tuple(c.pos for c in self.cleanup)
        res = assign_within_radius(self.g, AssignmentProblem(targets, ys, self.g.n))
        if not res.feasible:
            self.meta["failures"].append(
                {"kind": "cleanup-deficient", "deficiency": res.deficiency}
            )
        for dest, slot in res.assignment.items():
            self._dispatch(self.cleanup[slot], dest, self.g.n, audit=False)

    def move(self, g: GraphView, state: GameState) -> list[int]:
        robber = state.robber
        if not self.planned:
            self.planned = True
            self.anchor = robber
            self.anchor_dist = bfs_distances(g, [robber])
            if self.case == "saturate":
                self._plan_saturate(robber)
            elif self.case == "hold":
                self._plan_hold(robber)
            else:
                self._plan_sphere_relay(robber)
        if self.case == "sphere-relay":
            dv = int(self.anchor_dist[robber]) if self.anchor_dist is not None else -1
            if not self.team2_done and dv == self.r // 2:
                self.team2_done = True
                self._release_team2(robber)
            if not self.cleanup_done and robber in self.holes:
                self.cleanup_done = True
                self._release_cleanup(robber)
        return self._step_all(robber)


def dense_strategy(g: GraphView, cfg: DenseStrategyConfig) -> DenseStrategy:
    """Build the dense-regime cop strategy for one game."""
    return DenseStrategy(g, cfg)


# ---------------------------------------------------------------------------
# Sparse regime: the round/team schedule


class ScheduleError(ValueError):
    """Schedule parameters leave some radius band without an integer."""


@dataclass(frozen=True)
class RadiusSchedule:
    """Round radii and team sizes for the sparse strategy.

    radii[i-1] is the round-i radius r_i, for i = 1..T+1 where T is the
    team count; the extra entry serves the final team's matching radius.
    Team i is sampled with per-vertex probability team_sizes[i-1]/n.
    """

    n: int
    d: float
    eps0: float
    F: float
    C: float
    T: int
    radii: tuple[int, ...]
    team_sizes: tuple[float, ...]
    cleanup_size: int

    def validate(self) -> None:
        root = math.sqrt(self.eps0 * self.n)
        r1 = self.radii[0]
        if not self.d ** (4 * r1) <= self.eps0 * self.n:
            raise ScheduleError("r_1 violates its defining inequality")
        for i in range(2, len(self.radii) + 1):
            b = math.exp(2 * (i - 1)) * root
            s = self.radii[i - 2] + self.radii[i - 1]
            if not (b / self.d < self.d**s <= b * (1 + 1e-9)):
                raise ScheduleError(f"r_{i} falls outside its band")
        if any(r < self.radii[0] for r in self.radii):
            raise ScheduleError("some radius drops below r_1")


def radius_schedule(n: int, d: float, eps0: float, F: float, C: float) -> RadiusSchedule:
    """Compute round radii and team sizes from the schedule recurrence.

    r_1 = floor(log_d(eps0*n) / 4); for i >= 2, r_i is the unique
    integer putting d^(r_{i-1}+r_i) in (B/d, B] with
    B = exp(2(i-1)) * sqrt(eps0*n).  Raises ScheduleError when a band
    contains no admissible integer.
    """
    if d < 2.0:
        raise ScheduleError("schedule needs d >= 2")
    if not 0.0 < eps0 < 1.0:
        raise ScheduleError("eps0 must be in (0, 1)")
    if F <= 0 or C <= 0:
        raise ScheduleError("F and C must be positive")
    if n < 3 or math.log(math.log(n)) <= 0:
        raise ScheduleError("n too small for a log log n schedule")
    T = int(math.ceil(F * math.log(math.log(n))))
    r1 = int(math.floor(math.log(eps0 * n) / (4.0 * math.log(d)))) if eps0 * n > 1 else -1
    if r1 < 0:
        raise ScheduleError("eps0*n too small for a non-negative r_1")
    radii = [r1]
    root = math.sqrt(eps0 * n)
    for i in range(2, T + 2):
        b = math.exp(2 * (i - 1)) * root
        s = int(math.floor(math.log(b) / math.log(d)))
        while d ** (s + 1) <= b:
            s += 1
        while d**s > b:
            s -= 1
        ri = s - radii[-1]
        if ri < 0:
            raise ScheduleError(f"no integer satisfies the band for r_{i}")
        radii.append(ri)
    sizes = [C * math.exp(-i) * math.sqrt(n) for i in range(1, T)] + [math.sqrt(n)]
    cleanup = int(math.ceil(n ** (1.0 / 3.0)))
    return RadiusSchedule(n, d, eps0, F, C, T, tuple(radii), tuple(sizes), cleanup)


@dataclass
class RoundState:
    """Bookkeeping for one strategy round, embedded in game metadata."""

    index: int
    anchor: int
    radius: int
    sphere_size: int
    exit_count: int
    vulnerable: bool
    team_size: int = 0
    dst_size: int = 0
    covered: int = 0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "anchor": self.anchor,
            "radius": self.radius,
            "sphere_size": self.sphere_size,
            "exit_count": self.exit_count,
            "vulnerable": self.vulnerable,
            "team_size": self.team_size,
            "dst_size": self.dst_size,
            "covered": self.covered,
        }


class SparseStrategy(_TeamStrategy):
    """Round-based containment strategy for sparse random graphs.

    Stationed cops sit on the supplied exception set X.  In round i the
    robber sits at anchor v_i; team i is released toward the spheres
    S(u, r_{i+1}) around every uncovered exit u of the current sphere
    S(v_i, r_i), claiming destinations through disjoint reservoirs (the
    final team instead covers its whole destination set by radius-capped
    matching).  The round ends when the robber first touches the sphere;
    her landing vertex anchors the next round.  A clean-up crew is
    re-aimed at the current ball each round and, between rounds,
    repeatedly walks toward the robber's reachable region so a hiding
    robber is cornered; once every exit of a round is covered the
    remaining teams reinforce the sweep.
    """

    REPLAN_EVERY = 4

    def __init__(
        self,
        g: GraphView,
        schedule: RadiusSchedule,
        x_set: frozenset[int] | set[int],
        seed: int = 0,
    ):
        super().__init__(g)
        self.schedule = schedule
        self.x_set = frozenset(int(v) for v in x_set)
        self.seed = seed
        self.meta.update(
            {
                "strategy": "sparse",
                "x_size": len(self.x_set),
                "rounds": [],
                "round1_vulnerable": None,
                "sealed": False,
            }
        )
        self.teams: list[list[_Cop]] = []
        self.cleanup: list[_Cop] = []
        self.round_idx = 0
        self.anchor = -1
        self.sphere: set[int] = set()
        self.exits: set[int] = set()
        self.covered: dict[int, int] = {}  # destination -> cop id, current round's team
        self.anchor_dist: np.ndarray | None = None
        self.turn_count = 0
        self.sweep_mode = False
        self.started = False

    # -- placement

    def place(self, g: GraphView) -> list[int]:
        sch = self.schedule
        self._add_team(sorted(self.x_set), "station")
        for i, size in enumerate(sch.team_sizes, start=1):
            rng = seeds.substream(self.seed, i)
            team = self._add_team(_sample_team(g.n, min(1.0, size / g.n), rng), f"team{i}")
            self.teams.append(team)
        rng = seeds.substream(self.seed, 0)
        k = min(sch.cleanup_size, g.n)
        self.cleanup = self._add_team(sorted(int(x) for x in rng.choice(g.n, size=k, replace=False)), "cleanup")
        self.meta["teams"] = [len(t) for t in self.teams]
        self.meta["cleanup_size"] = len(self.cleanup)
        self.meta["budget_total"] = len(self.cops)
        if not self.cops:
            self.meta["failures"].append({"kind": "empty-sample"})
            self._add_team([0], "station")
            self.meta["budget_total"] = len(self.cops)
        return self.positions()

    # -- round machinery

    def _radius(self, i: int) -> int:
        radii = self.schedule.radii
        return radii[i - 1] if i <= len(radii) else radii[-1]

    def _sphere_of(self, v: int, r: int) -> set[int]:
        self.anchor_dist = bfs_distances(self.g, [v])
        if r == 0:
            return {v}
        return set(int(x) for x in np.flatnonzero(self.anchor_dist == r))

    def _enter_round(self, v: int) -> None:
        """Advance to the next round anchored at v."""
        self.round_idx += 1
        i = self.round_idx
        r = self._radius(i)
        prev_covered = self.covered
        self.anchor = v
        self.sphere = self._sphere_of(v, r)
        if i == 1:
            exits = self.sphere - self.x_set
        else:
            exits = self.sphere - set(prev_covered) - self.x_set
        self.exits = exits
        thr = math.exp(-5.0 * (i - 1)) * len(self.sphere)
        vulnerable = len(exits) <= thr
        rs = RoundState(i, v, r, len(self.sphere), len(exits), vulnerable)
        if i == 1:
            self.meta["round1_vulnerable"] = vulnerable
        if not exits:
            self.sweep_mode = True
            self.meta["sealed"] = True
        self._release_team(rs)
        self.meta["rounds"].append(rs.as_dict())
        self._replan_cleanup()

    def _release_team(self, rs: RoundState) -> None:
        i = rs.index
        if i > len(self.teams) or not self.exits:
            return
        team = self.teams[i - 1]
        rs.team_size = len(team)
        r_next = self._radius(i + 1)
        spheres = [np.zeros(0, dtype=np.int64)]
        for _, r, _, verts in bfs_per_source(self.g, sorted(self.exits), r_next):
            if r == r_next:
                spheres.append(verts)
        dst = set(np.unique(np.concatenate(spheres)).tolist()) - self.x_set
        rs.dst_size = len(dst)
        if not dst:
            self.covered = {}
            return
        cap = self._radius(i) + r_next + 1
        covered: dict[int, int] = {}
        if i == len(self.teams):
            # final team: cover everything by matching within the cap
            ys = tuple(c.pos for c in team)
            res = assign_within_radius(self.g, AssignmentProblem(tuple(sorted(dst)), ys, cap))
            if not res.feasible:
                self.meta["failures"].append(
                    {"kind": "final-cover-deficient", "round": i,
                     "deficiency": res.deficiency}
                )
            for dest, slot in res.assignment.items():
                if self._dispatch(team[slot], dest, cap):
                    covered[dest] = team[slot].cid
        else:
            family = grow_disjoint_family(self.g, sorted(dst), cap)
            by_pos: dict[int, list[_Cop]] = {}
            for cop in team:
                by_pos.setdefault(cop.pos, []).append(cop)
            taken: set[int] = set()
            for w in sorted(family):
                picked = None
                for x in sorted(family[w]):
                    for cop in by_pos.get(x, ()):
                        if cop.cid not in taken and not cop.path:
                            picked = cop
                            break
                    if picked:
                        break
                if picked is None:
                    continue
                taken.add(picked.cid)
                if self._dispatch(picked, w, cap):
                    covered[w] = picked.cid
        rs.covered = len(covered)
        self.covered = covered

    # -- clean-up sweep

    def _held_positions(self) -> set[int]:
        return {c.pos for c in self.cops if not c.path}

    def _robber_region(self, robber: int) -> list[int]:
        """Reachable component of the robber inside the ball, minus holds."""
        r = self._radius(self.round_idx) if self.round_idx else 0
        held = self._held_positions()
        if self.anchor_dist is None:
            return []
        allowed = self.anchor_dist >= 0
        cap = self.anchor_dist <= r
        region = []
        seen = {robber}
        queue = deque([robber])
        while queue:
            u = queue.popleft()
            region.append(u)
            for w in self.g.adjacency(u):
                w = int(w)
                if w in seen or w in held:
                    continue
                if not (allowed[w] and cap[w]):
                    continue
                seen.add(w)
                queue.append(w)
        return sorted(region)

    def _sweep_pool(self) -> list[_Cop]:
        pool = list(self.cleanup)
        if self.sweep_mode:
            for j in range(self.round_idx, len(self.teams)):
                pool.extend(self.teams[j])
        return pool

    def _replan_cleanup(self, robber: int | None = None) -> None:
        if robber is None:
            robber = self.anchor
        region = self._robber_region(robber)
        if not region:
            return
        free = [c for c in self._sweep_pool() if not c.path]
        if not free:
            return
        # nearest-to-robber region vertices first, one free sweeper each
        rd = bfs_distances(self.g, [robber])
        targets = sorted(region, key=lambda u: (int(rd[u]) if rd[u] >= 0 else self.g.n, u))
        dists = {c.cid: bfs_distances(self.g, [c.pos]) for c in free}
        used: set[int] = set()
        for t in targets:
            best = None
            for c in free:
                if c.cid in used or dists[c.cid][t] < 0:
                    continue
                key = (int(dists[c.cid][t]), c.cid)
                if best is None or key < best[0]:
                    best = (key, c)
            if best is None:
                continue
            used.add(best[1].cid)
            self._dispatch(best[1], t, self.g.n, audit=False)
            if len(used) == len(free):
                break

    # -- per-turn driver

    def move(self, g: GraphView, state: GameState) -> list[int]:
        robber = state.robber
        self.turn_count += 1
        if not self.started:
            self.started = True
            self._enter_round(robber)
        # a round ends the moment the robber stands on its sphere
        guard = 0
        while robber in self.sphere and guard <= self.schedule.T + 2:
            guard += 1
            self._enter_round(robber)
        if self.turn_count % self.REPLAN_EVERY == 0:
            self._replan_cleanup(robber)
        return self._step_all(robber)


def sparse_strategy(
    g: GraphView,
    schedule: RadiusSchedule,
    x_set: frozenset[int] | set[int],
    seed: int = 0,
) -> SparseStrategy:
    """Build the sparse-regime cop strategy for one game."""
    return SparseStrategy(g, schedule, x_set, seed)


# ---------------------------------------------------------------------------
# Robber policies and small cop baselines


def _safe(dist: int, n: int) -> int:
    return dist if dist >= 0 else n


class GreedyRobber:
    """Maximizes distance to the nearest cop, then to the second nearest.

    Ties after both distances break toward the smallest vertex id.  The
    second-nearest distance treats the cop multiset literally: two cops
    on one vertex supply two equal distances.
    """

    def choose(self, g: GraphView, cops: tuple[int, ...]) -> int:
        return self._best(g, cops, range(g.n))

    def move(self, g: GraphView, state: GameState) -> int:
        row = g.adjacency(state.robber)
        if not len(row):
            return state.robber  # staying is the only move
        cands = [state.robber] + [int(x) for x in row]
        return self._best(g, state.cops, cands)

    @staticmethod
    def _best(g: GraphView, cops, candidates) -> int:
        if len(cops) == 0:
            return min(candidates)
        d1, d2 = two_nearest_source_distances(g, list(cops))
        n = g.n
        best_v = -1
        best_key = None
        for v in candidates:
            key = (_safe(int(d1[v]), n), _safe(int(d2[v]), n), -v)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        return best_v


def robber_greedy() -> GreedyRobber:
    return GreedyRobber()


class TableRobber:
    """Solver-optimal robber: survives iff the cop count is deficient,
    otherwise maximizes the capture time."""

    def __init__(self, table: PositionTable):
        self.table = table

    def _key(self, ci: int, v: int, n: int) -> tuple[int, int]:
        # losing-for-cops positions first, then the slowest capture
        p = (ci * n + v) * 2 + COPS_TURN
        if not self.table.win[p]:
            return (0, 0)
        return (1, -self.table.steps[p])

    def choose(self, g: GraphView, cops: tuple[int, ...]) -> int:
        ci = self.table.index_of(cops)
        return min(range(g.n), key=lambda v: (self._key(ci, v, g.n), v))

    def move(self, g: GraphView, state: GameState) -> int:
        ci = self.table.index_of(state.cops)
        return min(self.table.nbh[state.robber], key=lambda v: (self._key(ci, v, g.n), v))


def robber_optimal(table: PositionTable) -> TableRobber:
    return TableRobber(table)


class GreedyCops:
    """Each cop steps along a shortest path toward the robber."""

    def __init__(self, placement: list[int]):
        self.placement = [int(x) for x in placement]
        self.current = list(self.placement)

    def place(self, g: GraphView) -> list[int]:
        self.current = list(self.placement)
        return list(self.current)

    def move(self, g: GraphView, state: GameState) -> list[int]:
        rd = bfs_distances(g, [state.robber])
        out = []
        for pos in self.current:
            if rd[pos] <= 0:
                out.append(pos)
                continue
            row = g.adjacency(pos)
            closer = row[rd[row] == rd[pos] - 1]
            out.append(int(closer[0]) if len(closer) else pos)
        self.current = out
        return list(out)


def cop_greedy(placement: list[int]) -> GreedyCops:
    return GreedyCops(placement)


class TableCops:
    """Solver-optimal cops: play the successor minimizing capture time."""

    def __init__(self, table: PositionTable):
        self.table = table
        if table.best_placement() is None:
            raise ValueError("table has no winning placement")
        self.current: list[int] = []

    def place(self, g: GraphView) -> list[int]:
        ms, _ = self.table.best_placement()
        self.current = list(ms)
        return list(self.current)

    def move(self, g: GraphView, state: GameState) -> list[int]:
        t = self.table
        n = g.n
        ci = t.index_of(state.cops)
        best = None
        for cj in t.cop_successors(ci).tolist():
            p = (cj * n + state.robber) * 2 + ROBBER_TURN
            if not t.win[p]:
                continue
            key = (t.steps[p], t.multisets[cj])
            if best is None or key < best:
                best = key
        if best is None:
            return list(self.current)
        aligned = self._align(g, self.current, list(best[1]))
        self.current = aligned
        return list(aligned)

    @staticmethod
    def _align(g: GraphView, current: list[int], target: list[int]) -> list[int]:
        for perm in itertools.permutations(range(len(target))):
            cand = [target[j] for j in perm]
            ok = all(a == b or g.has_edge(a, b) for a, b in zip(current, cand))
            if ok:
                return cand
        raise RuntimeError("solver successor not reachable by per-cop moves")


def cop_optimal(table: PositionTable) -> TableCops:
    return TableCops(table)
