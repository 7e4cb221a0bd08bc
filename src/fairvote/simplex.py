"""Euclidean projection onto scaled simplices (sort-and-threshold water filling)."""

from __future__ import annotations

import numpy as np

_COUNTS: dict[int, np.ndarray] = {}  # size -> read-only arange(1, size + 1)


def project_to_scaled_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Project v onto {w >= 0, sum(w) = total} in Euclidean norm.

    Standard sort-based algorithm: threshold tau is the largest value such
    that sum(max(v - tau, 0)) = total.
    """
    if total < 0:
        raise ValueError("simplex scale must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    if total == 0:
        return np.zeros_like(v)
    counts = _COUNTS.get(v.size)
    if counts is None:
        counts = _COUNTS[v.size] = np.arange(1, v.size + 1)
        counts.flags.writeable = False
    u = np.sort(v)[::-1]
    thresholds = (u.cumsum() - total) / counts
    k = (u > thresholds).nonzero()[0][-1]
    return np.maximum(v - thresholds[k], 0.0)
