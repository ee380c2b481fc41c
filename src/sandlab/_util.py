"""Shared helpers: deterministic RNG streams, fits, per-axis sums."""

from __future__ import annotations

import numpy as np


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator keyed by a seed and a stream path.

    The same (seed, stream) always produces the same draws, independent of
    construction order, so replicate streams can be derived without
    coordination.
    """
    key = np.random.SeedSequence([int(seed), *(int(s) for s in stream)])
    return np.random.Generator(np.random.Philox(key))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def axis_sum(a: np.ndarray, d: int) -> np.ndarray:
    """The (len(a),) * d array of a[x_0] + ... + a[x_(d-1)].

    The axes are added in order onto zeros, so every table built from it
    rounds the same way as the per-axis loops it replaced.
    """
    out = np.zeros((a.size,) * d)
    for axis in range(d):
        idx = [None] * d
        idx[axis] = slice(None)
        out += a[tuple(idx)]
    return out
