"""Scale smoke tier: one run near a default budget, timed and sized.

Deselected by default (see pyproject.toml); run with
`PYTHONPATH=src python -m pytest -m scale -s tests/test_scale.py`.
Each test prints its wall time and the process's peak resident set
(`ru_maxrss`, a high-water mark over the whole pytest process, so run
the tier on its own for a clean figure).
"""

import resource
import sys
import time

import pytest

from pursuit.graph import path_graph
from pursuit.solver import DEFAULT_POSITION_BUDGET, solve_k


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024  # bytes vs KiB


@pytest.mark.scale
def test_solver_path_4000_one_cop(record_property):
    # 2 * 4000 * 4000 = 32M positions, 4000 levels
    start = time.perf_counter()
    table = solve_k(path_graph(4000), 1)
    best = table.best_placement()
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    record_property("wall_s", round(wall, 2))
    record_property("ru_maxrss_mb", round(rss))
    print(f"\nsolve_k(path_graph(4000), 1) + best_placement: {wall:.2f} s, ru_maxrss {rss:.0f} MB")
    assert len(table.win) == 32_000_000 <= DEFAULT_POSITION_BUDGET
    assert best == ((1999,), 2000)
