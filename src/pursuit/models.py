"""Random graph generators: G(n,p), G(n,m), and random d-regular.

All three are driven by the seeded streams in `seeds` and are fully
deterministic given (params, seed).  G(n,p) skips over the C(n,2) pair
indices with geometric gaps instead of flipping every coin, so sparse
graphs cost O(m) draws.  G(n,m) runs a sparse partial Fisher-Yates over
pair indices.  Random regular graphs come from the pairing model with
rejection until simple.
"""

from __future__ import annotations

import numpy as np

from . import seeds
from .graph import GraphView, from_edges

__all__ = ["gnp", "gnm", "random_regular", "RegularRejectionError"]

_PAIRING_ATTEMPTS = 1000


def _num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def _unrank_pairs(n: int, ks: np.ndarray) -> np.ndarray:
    """Map linear pair indices to (u, v) with u < v, lexicographic order.

    Row u starts at offset(u) = u*(n-1) - u*(u-1)/2.  The float solve for
    u can be off by one ulp, so it is corrected exactly afterwards.
    """
    if len(ks) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    k = ks.astype(np.float64)
    c = 2 * n - 1
    u = np.floor((c - np.sqrt(c * c - 8.0 * k)) / 2.0).astype(np.int64)
    u = np.clip(u, 0, n - 2)

    def offset(uu):
        return uu * (n - 1) - (uu * (uu - 1)) // 2

    # exact one-step corrections for float error
    too_high = offset(u) > ks
    u[too_high] -= 1
    too_low = offset(u + 1) <= ks
    u[too_low] += 1
    v = ks - offset(u) + u + 1
    return np.column_stack([u, v])


def gnp(n: int, p: float, seed: int) -> GraphView:
    """Binomial random graph G(n, p)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    total = _num_pairs(n)
    if total == 0 or p == 0.0:
        return from_edges(n, [])
    if p == 1.0:
        return from_edges(n, _unrank_pairs(n, np.arange(total, dtype=np.int64)))
    rng = seeds.stream(seed, 0)
    # geometric skipping over pair indices; batch size covers the mean
    # count plus slack, topped up deterministically if the walk runs short
    picked: list[np.ndarray] = []
    pos = -1
    batch = max(256, int(total * p * 1.2) + 64)
    while pos < total:
        gaps = rng.geometric(p, size=batch)
        idx = pos + np.cumsum(gaps)
        inside = idx < total
        picked.append(idx[inside])
        if not inside.all():
            break
        pos = int(idx[-1])
        batch = max(256, batch // 4)
    ks = np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)
    return from_edges(n, _unrank_pairs(n, ks))


def gnm(n: int, m: int, seed: int) -> GraphView:
    """Uniform random graph with exactly m edges."""
    total = _num_pairs(n)
    if not 0 <= m <= total:
        raise ValueError(f"m must be in [0, {total}]")
    rng = seeds.stream(seed, 0)
    # partial Fisher-Yates over pair indices, sparse via a swap dict
    swap: dict[int, int] = {}
    out = np.zeros(m, dtype=np.int64)
    for i in range(m):
        j = int(rng.integers(i, total))
        out[i] = swap.get(j, j)
        swap[j] = swap.get(i, i)
    return from_edges(n, _unrank_pairs(n, out))


class RegularRejectionError(RuntimeError):
    """Pairing model failed to produce a simple graph within the attempt cap."""


def random_regular(n: int, d: int, seed: int) -> GraphView:
    """Random d-regular graph via the pairing model with rejection.

    Conditioned on acceptance the result is uniform over labeled simple
    d-regular graphs.  Raises RegularRejectionError after 1000 rejected
    pairings (requires n*d even and d < n).
    """
    if d < 0 or n < 0:
        raise ValueError("n and d must be non-negative")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError("d must be smaller than n")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if d == 0:
        return from_edges(n, [])
    rng = seeds.stream(seed, 0)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_PAIRING_ATTEMPTS):
        perm = rng.permutation(stubs)
        a = perm[0::2]
        b = perm[1::2]
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        key = lo * n + hi
        if len(np.unique(key)) != len(key):
            continue
        return from_edges(n, np.column_stack([lo, hi]))
    raise RegularRejectionError(f"no simple pairing after {_PAIRING_ATTEMPTS} attempts (n={n}, d={d})")
