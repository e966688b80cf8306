"""Scale smoke tier: runs near a default budget or at large n, timed and sized.

Deselected by default (see pyproject.toml); run with
`PYTHONPATH=src python -m pytest -m scale -s tests/test_scale.py`.
Each test prints its wall time and the process's peak resident set
(`ru_maxrss`, a high-water mark over the whole pytest process, so run
one test at a time, with `-k`, for a clean figure).
"""

import hashlib
import json
import resource
import sys
import time

import pytest

from pursuit.cli import main
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


@pytest.mark.scale
def test_verify_expansion_sparse_100000(tmp_path, record_property):
    # the sphere-cap sweep runs a truncated BFS to radius 3 from all 10^5 vertices
    out = tmp_path / "run.json"
    argv = ["verify-expansion", "--regime", "sparse", "--n", "100000", "--trials", "1",
            "--count", "200", "--format", "json", "--out", str(out)]
    start = time.perf_counter()
    assert main(argv) == 0
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    record_property("wall_s", round(wall, 2))
    record_property("ru_maxrss_mb", round(rss))
    print(f"\nverify-expansion --regime sparse --n 100000 --count 200: {wall:.2f} s, ru_maxrss {rss:.0f} MB")
    row = json.loads(out.read_text())["results"][0]
    assert row["upper_checked"] == 100000 * 3


@pytest.mark.scale
def test_simulate_dense_20000(tmp_path, record_property):
    # d = log^3 n, about 971, gives about 9.7M edges, and building G(n, p)
    # is most of the run; below sqrt(n) log n, about 1400, it selects "hold"
    out = tmp_path / "run.json"
    argv = ["simulate", "--regime", "dense", "--n", "20000", "--trials", "1", "--seed", "0",
            "--format", "json", "--out", str(out)]
    start = time.perf_counter()
    assert main(argv) == 0
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    record_property("wall_s", round(wall, 2))
    record_property("ru_maxrss_mb", round(rss))
    print(f"\nsimulate --regime dense --n 20000 --trials 1: {wall:.2f} s, ru_maxrss {rss:.0f} MB")
    row = json.loads(out.read_text())["results"][0]
    assert row["n"] == 20000 and row["case"] == "hold"


@pytest.mark.scale
def test_simulate_sparse_1000000(tmp_path, record_property):
    # G(10^6, 15.2/10^6) and 5,108 cops; the robber is caught in 4 moves
    # after 2 rounds, so per-search costs (clean-up sweep, robber key,
    # reservoir families) dominate, not the game's length
    out = tmp_path / "run.json"
    argv = ["simulate", "--regime", "sparse", "--n", "1000000", "--trials", "1", "--seed", "0",
            "--format", "json", "--out", str(out)]
    start = time.perf_counter()
    assert main(argv) == 0
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    record_property("wall_s", round(wall, 2))
    record_property("ru_maxrss_mb", round(rss))
    print(f"\nsimulate --regime sparse --n 1000000 --trials 1: {wall:.2f} s, ru_maxrss {rss:.0f} MB")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "f45c57221925ae2ac7884e5d741055c3417e1d977de00bfbc795502ed5b9dc95"
