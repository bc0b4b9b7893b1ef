"""Inputs of the committed ``ndtri`` oracle table, and the script that wrote it.

``data/ndtri_table.txt`` holds one ``y ndtri(y)`` pair per line, each float64
written as the 16 hex digits of its bit pattern. The outputs were computed
once by ``scipy.special.ndtri`` (scipy 1.17.1), so the simulator's port of
Cephes ``ndtri`` is checked against fixed bits that a later scipy cannot
move. The inputs are 1,000 uniforms as ``simulate`` feeds them, 200 draws
spread over both deep tails, :func:`edges`, and 200 uniforms on which
``np.log`` and the C library's ``math.log`` disagree for one of the two tail
logarithms (on x86-64 with numpy 2.4.6), so that a port taking ``np.log``
fails the table. Rewrite the table with

    python tests/ndtri_table.py

Importing this module loads numpy only; running it also loads scipy.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TABLE = Path(__file__).parent / "data" / "ndtri_table.txt"
EXPM2 = 0.13533528323661269189  # e^-2, where Cephes leaves the central branch


def tail_switch() -> float:
    """The largest y with sqrt(-2 ln y) >= 8, where Cephes moves to P2/Q2."""
    lo, hi = np.array([1e-15, 1e-13]).view(np.int64).tolist()
    while hi - lo > 1:  # positive floats order as their bit patterns
        mid = (lo + hi) // 2
        y = float(np.int64(mid).view(np.float64))
        lo, hi = (mid, hi) if math.sqrt(-2.0 * math.log(y)) >= 8.0 else (lo, mid)
    return float(np.int64(lo).view(np.float64))


def edges() -> np.ndarray:
    """Branch edges and extremes of [0, 1], each with its neighbouring floats."""
    switch = tail_switch()
    points = [0.0, 5e-324, 1e-300, switch, 2.0 ** -53, EXPM2, 0.5,
              1.0 - EXPM2, 1.0 - switch, 1.0]
    out = []
    for p in points:
        out += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return np.unique(np.clip(out, 0.0, 1.0))


def _logs_disagree(y: np.ndarray) -> np.ndarray:
    """Where np.log and math.log differ on ln t or on ln x, x = sqrt(-2 ln t)."""
    t = np.minimum(y, 1.0 - y)
    c_log = np.array([math.log(v) for v in t.tolist()])
    x = np.sqrt(-2.0 * c_log)
    return (np.log(t) != c_log) | (np.log(x) != np.array([math.log(v) for v in x.tolist()]))


def inputs() -> np.ndarray:
    """Every y of the table, in its order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(20_261_019)))
    uniforms = np.maximum(rng.random(1000), 2.0 ** -53)
    lower = np.exp(-745.0 * rng.random(100))
    upper = 1.0 - np.exp(-36.0 * rng.random(100))
    search = np.maximum(rng.random(1_000_000), 2.0 ** -53)
    search = search[np.minimum(search, 1.0 - search) <= EXPM2]
    return np.concatenate([uniforms, lower, upper, edges(), search[_logs_disagree(search)][:200]])


def read_table() -> tuple[np.ndarray, np.ndarray]:
    """The table's (y, ndtri(y)) columns as float64 arrays."""
    words = TABLE.read_text(encoding="ascii").split()
    bits = np.array([int(w, 16) for w in words], dtype=np.uint64).view(np.float64)
    return bits[0::2], bits[1::2]


if __name__ == "__main__":
    from scipy.special import ndtri

    y = inputs()
    lines = (f"{a:016x} {b:016x}\n" for a, b in
             zip(y.view(np.uint64).tolist(), ndtri(y).view(np.uint64).tolist()))
    TABLE.write_text("".join(lines), encoding="ascii")
