"""Turn-based pursuit game driver with structured, replayable traces.

Protocol: cops are placed first, the robber then picks a start vertex
with full knowledge, and play alternates with cops moving first.  Any
piece may stay in place, several cops may share a vertex, and capture
means a cop occupies the robber's vertex after either side's move.
Capture time counts cop moves, matching the solver's step metric.

Strategies are objects: a cop strategy provides place(g) and
move(g, state) -> position list aligned with its previous list; a robber
strategy provides choose(g, cops) and move(g, state).  The engine
validates every transition, so an illegal move raises with the offender
identified instead of corrupting the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .graph import GraphView

__all__ = [
    "GameState",
    "GameResult",
    "IllegalMoveError",
    "is_capture",
    "play",
    "validate_trace",
]


@dataclass(frozen=True)
class GameState:
    """Snapshot between moves. cops is the sorted multiset view."""

    cops: tuple[int, ...]
    robber: int
    turn: str  # "cops" or "robber"
    step: int  # cop moves completed so far

    def __post_init__(self):
        if self.turn not in ("cops", "robber"):
            raise ValueError("turn must be 'cops' or 'robber'")
        if tuple(sorted(self.cops)) != self.cops:
            raise ValueError("cop multiset must be sorted")


@dataclass
class GameResult:
    winner: str  # "cops" or "robber-survived"
    capture_time: int | None
    horizon: int
    trace: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


class IllegalMoveError(RuntimeError):
    pass


class CopStrategy(Protocol):
    def place(self, g: GraphView) -> list[int]: ...

    def move(self, g: GraphView, state: GameState) -> list[int]: ...


class RobberStrategy(Protocol):
    def choose(self, g: GraphView, cops: tuple[int, ...]) -> int: ...

    def move(self, g: GraphView, state: GameState) -> int: ...


def _check_vertex(g: GraphView, v: int, label: str) -> None:
    if not 0 <= v < g.n:
        raise IllegalMoveError(f"{label}: vertex {v} out of range")


def is_capture(state: GameState) -> bool:
    return state.robber in state.cops


def _validate_cop_step(g: GraphView, before: list[int], after: list[int]) -> None:
    if len(after) != len(before):
        raise IllegalMoveError(
            f"cop strategy returned {len(after)} positions for {len(before)} cops"
        )
    for i, (a, b) in enumerate(zip(before, after)):
        _check_vertex(g, b, f"cop {i}")
        if a != b and not g.has_edge(a, b):
            raise IllegalMoveError(f"cop {i} jumped {a} -> {b} (no edge)")


def play(
    g: GraphView,
    cop_strategy: CopStrategy,
    robber_strategy: RobberStrategy,
    horizon: int | None = None,
) -> GameResult:
    """Run one game to capture or horizon; horizon defaults to n^2 cop moves."""
    if horizon is None:
        horizon = g.n * g.n

    cop_list = [int(c) for c in cop_strategy.place(g)]
    for i, c in enumerate(cop_list):
        _check_vertex(g, c, f"cop {i} placement")
    trace: list[dict] = [{"event": "place", "actor": "cops", "positions": list(cop_list)}]
    robber = int(robber_strategy.choose(g, tuple(sorted(cop_list))))
    _check_vertex(g, robber, "robber placement")
    trace.append({"event": "place", "actor": "robber", "position": robber})

    state = GameState(tuple(sorted(cop_list)), robber, "cops", 0)
    if is_capture(state):
        return _finish(trace, "cops", 0, horizon, cop_strategy, robber_strategy)

    step = 0
    while step < horizon:
        step += 1
        new_list = [int(c) for c in cop_strategy.move(g, state)]
        _validate_cop_step(g, cop_list, new_list)
        trace.append({"event": "move", "actor": "cops", "from": list(cop_list), "to": list(new_list)})
        cop_list = new_list
        state = GameState(tuple(sorted(cop_list)), state.robber, "robber", step)
        if is_capture(state):
            return _finish(trace, "cops", step, horizon, cop_strategy, robber_strategy)

        new_robber = int(robber_strategy.move(g, state))
        _check_vertex(g, new_robber, "robber")
        if new_robber != state.robber and not g.has_edge(state.robber, new_robber):
            raise IllegalMoveError(f"robber jumped {state.robber} -> {new_robber} (no edge)")
        trace.append({"event": "move", "actor": "robber", "from": state.robber, "to": new_robber})
        state = GameState(state.cops, new_robber, "cops", step)
        if is_capture(state):
            return _finish(trace, "cops", step, horizon, cop_strategy, robber_strategy)

    return _finish(trace, "robber-survived", None, horizon, cop_strategy, robber_strategy)


def _finish(trace, winner, capture_time, horizon, cop_strategy, robber_strategy) -> GameResult:
    meta = {}
    if hasattr(cop_strategy, "metadata"):
        meta.update(cop_strategy.metadata())
    if hasattr(robber_strategy, "metadata"):
        meta.update(robber_strategy.metadata())
    return GameResult(winner, capture_time, horizon, trace, meta)


def validate_trace(g: GraphView, result: GameResult) -> list[str]:
    """Replay a trace and list every rule violation (empty list = clean).

    Checks placement validity, strict cops/robber alternation, per-piece
    move legality, and that the recorded winner and capture time match
    what actually happens on the board.
    """
    issues: list[str] = []
    trace = result.trace
    if len(trace) < 2 or trace[0].get("event") != "place" or trace[0].get("actor") != "cops":
        return ["trace must open with cop placement then robber placement"]
    if trace[1].get("event") != "place" or trace[1].get("actor") != "robber":
        return ["trace must open with cop placement then robber placement"]
    cops = [int(c) for c in trace[0]["positions"]]
    for i, c in enumerate(cops):
        if not 0 <= c < g.n:
            issues.append(f"cop {i} placed out of range at {c}")
    robber = int(trace[1]["position"])
    if not 0 <= robber < g.n:
        issues.append(f"robber placed out of range at {robber}")

    captured_at: int | None = 0 if robber in cops else None
    step = 0
    expect = "cops"
    for idx, entry in enumerate(trace[2:], start=2):
        if captured_at is not None:
            issues.append(f"entry {idx}: move recorded after capture")
            break
        if entry.get("event") != "move":
            issues.append(f"entry {idx}: unexpected event {entry.get('event')!r}")
            continue
        actor = entry.get("actor")
        if actor != expect:
            issues.append(f"entry {idx}: expected {expect} move, got {actor}")
        if actor == "cops":
            step += 1
            frm = [int(x) for x in entry["from"]]
            to = [int(x) for x in entry["to"]]
            if frm != cops:
                issues.append(f"entry {idx}: cop 'from' does not match board")
            if len(to) != len(cops):
                issues.append(f"entry {idx}: cop count changed")
            else:
                for i, (a, b) in enumerate(zip(frm, to)):
                    if a != b and not g.has_edge(a, b):
                        issues.append(f"entry {idx}: cop {i} illegal move {a}->{b}")
            cops = to
            expect = "robber"
        else:
            frm = int(entry["from"])
            to = int(entry["to"])
            if frm != robber:
                issues.append(f"entry {idx}: robber 'from' does not match board")
            if frm != to and not g.has_edge(frm, to):
                issues.append(f"entry {idx}: robber illegal move {frm}->{to}")
            robber = to
            expect = "cops"
        if robber in cops:
            captured_at = step

    if result.winner == "cops":
        if captured_at is None:
            issues.append("winner recorded as cops but no capture occurs in trace")
        elif result.capture_time != captured_at:
            issues.append(
                f"capture at cop move {captured_at} but recorded capture_time={result.capture_time}"
            )
        if result.capture_time is not None and result.capture_time > result.horizon:
            issues.append("capture_time exceeds horizon")
    else:
        if captured_at is not None:
            issues.append("winner recorded as robber but trace contains a capture")
    return issues
