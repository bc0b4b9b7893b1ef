"""Deterministic floating-point reduction helpers.

All dataset means in this package go through :func:`pairwise_sum` so that a
given input array always reduces in the same order, on every platform, no
matter how the per-sample values were produced (serially or by a parallel
map). The tree is fixed: adjacent elements are paired level by level, an odd
trailing element is carried to the next level unchanged. :class:`_Fold` gives
the same bits for values that arrive a chunk at a time, in bounded memory.
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


#: Values per full block of a :class:`_Fold`; a power of two.
_WIDTH = 1 << 10


class _Fold:
    """A running :func:`pairwise_sum` of values added in any chunking, in bounded memory.

    ``total()`` has the bits of ``pairwise_sum`` of every added value in order.
    Split x into aligned blocks of ``_WIDTH`` values and a shorter tail. Each
    block is even-length at every level of the tree below its sum, so the tree
    pairs within blocks, carries the tail's odd element as the tail's own tree
    does, and meets the block sums and the tail's sum after log2(_WIDTH)
    levels: ``_tree(x) == _tree([block sums..., _tree(tail)])``. So each level
    keeps fewer than ``_WIDTH`` pending values and passes the sum of each full
    block to the level above, by the same rule. Values may carry trailing axes,
    which are summed elementwise; ``count`` is the number of values added.
    """

    __slots__ = ("count", "_levels")

    def __init__(self, shape: tuple = ()) -> None:
        self.count = 0
        self._levels = [np.empty((0, *shape))]

    def add(self, values: np.ndarray) -> None:
        self.count += len(values)
        self._push(0, values)

    def _push(self, level: int, x: np.ndarray) -> None:
        if level == len(self._levels):
            self._levels.append(self._levels[0][:0])
        pending = self._levels[level]
        if len(pending) + len(x) < _WIDTH:
            self._levels[level] = np.concatenate([pending, x])
            return
        if len(pending):
            head = np.concatenate([pending, x[: _WIDTH - len(pending)]])
            x = x[_WIDTH - len(pending):]
            self._push(level + 1, _tree(head)[None])
        k = len(x) // _WIDTH
        if k:
            blocks = x[: k * _WIDTH].reshape(k, _WIDTH, *x.shape[1:])
            self._push(level + 1, _tree(blocks.swapaxes(0, 1)))
        self._levels[level] = x[k * _WIDTH:].copy()

    def total(self):
        """The pairwise sum so far: a float, or an array of the trailing shape."""
        carry = None
        for pending in self._levels:
            if carry is not None:
                pending = np.concatenate([pending, carry[None]])
            if len(pending):
                carry = _tree(pending)
        return np.zeros(self._levels[0].shape[1:]) if carry is None else carry
