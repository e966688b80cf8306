"""Seeded random streams with explicit stream splitting.

Every randomized routine in the package draws from a counter-based
generator (Philox) keyed by a user seed plus a path of integer stream
ids.  Stream id conventions:

  * model generators use stream 0 of the seed they are handed,
  * repeated trials use stream = trial index,
  * strategies split one stream per team.

Two calls with the same (seed, path) produce identical draws, and
distinct paths are statistically independent, so trial i does not
depend on how many draws trial i-1 consumed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream path under `seed`, e.g. (trial,) or (trial, team)."""
    if seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed and path entries must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
