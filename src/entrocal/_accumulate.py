"""Deterministic floating-point reduction helpers.

All dataset means in this package go through :func:`pairwise_sum` so that a
given input array always reduces in the same order, on every platform, no
matter how the per-sample values were produced (serially or by a parallel
map). The tree is fixed: adjacent elements are paired level by level, an odd
trailing element is carried to the next level unchanged.
"""

from __future__ import annotations

import numpy as np


def _tree(x: np.ndarray) -> np.ndarray:
    """The pairwise tree over the first axis of a non-empty ``x``; drops that axis."""
    while x.shape[0] > 1:
        m = x.shape[0] // 2
        paired = x[: 2 * m : 2] + x[1 : 2 * m : 2]
        if x.shape[0] % 2:
            paired = np.concatenate([paired, x[-1:]])
        x = paired
    return x[0]


def pairwise_sum(values) -> float:
    """Sum ``values`` with a fixed pairwise (tree) reduction.

    Error growth is O(log n) in ulps instead of O(n) for a left fold, which
    keeps 10^7-element means reproducible and accurate. The reduction order
    is part of the contract: two calls with equal arrays return bit-identical
    results.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    return float(_tree(x)) if x.size else 0.0


def pairwise_mean(values) -> float:
    """Arithmetic mean via :func:`pairwise_sum`. Input must be non-empty."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("mean of empty array")
    return pairwise_sum(x) / x.size


def pairwise_sum_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise :func:`pairwise_sum` of a 2-D array, same tree per row."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    # The tree slices the first axis, which keeps the many short 1-D sums as
    # cheap as a 1-D-only loop; rows therefore go in transposed.
    return _tree(x.T) if x.shape[1] else np.zeros(x.shape[0])
