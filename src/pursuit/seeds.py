"""Seeded random streams with explicit stream splitting.

Every randomized routine in the package draws from a counter-based
generator (Philox) keyed by a user seed plus a path of integer stream
ids.  Stream id conventions:

  * model generators use stream 0 of the seed they are handed,
  * a CLI trial derives its graph and strategy seeds with
    trial_entropy(seed, trial, salt), one salt per trial kind (1 dense
    games, 2 sparse games, 3 dense and 4 sparse expansion checks),
  * strategies split one stream per team.

Two calls with the same (seed, path) produce identical draws, and
distinct paths are statistically independent, so trial i does not
depend on how many draws trial i-1 consumed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "trial_entropy"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream path under `seed`, e.g. (trial,) or (trial, team)."""
    if seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed and path entries must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def trial_entropy(seed: int, trial: int, salt: int) -> tuple[int, int]:
    """Independent (graph_seed, strategy_seed) pair for one trial."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(salt), int(trial)))
    a, b = ss.generate_state(2, np.uint64)
    return int(a), int(b)
