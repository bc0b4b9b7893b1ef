"""Equal-width reliability-diagram binning and the calibration report.

Bins partition [0, 1] into M left-closed intervals; the last bin is closed
at 1.0, so bin m covers [m/M, (m+1)/M) for m < M-1 and [(M-1)/M, 1.0] for
the last. Per bin we track the mean predicted probability (confidence), the
fraction of positive labels, their absolute and signed gaps, and the mean
per-datum ECD of the members.

The weighted sums reproduce the usual report scalars: ECE (absolute gaps),
ESCE (signed gaps, which can cancel across bins), and ECD. Because ECD is
an average of per-datum scores, its count-weighted per-bin sum equals the
global mean for any bin count; ``bin_stats`` verifies that identity at run
time, so every report is checked. ECE has no such invariance: changing M
changes the score.

Rows are grouped by bin once. Each bin index is computed by arithmetic,
trunc(p*M) corrected by at most one step against the edges, and gives the
same index as a binary search over them. One stable sort by that index puts
each bin's members in dataset order, so every per-bin mean of the
confidences and scores reduces the same array, and gives the same bits, as
a per-bin mask would. The fraction of positives is a count of positive
labels over the bin size: a pairwise sum of 0/1 values is an exact integer,
so the count gives the bits of the pairwise mean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._accumulate import pairwise_mean, pairwise_sum
from .metrics import DEFAULT_CLIP, ClipPolicy, Dataset, brier, ecd_sample_scores, nll

__all__ = [
    "BinSpec",
    "BinStats",
    "CalibrationReport",
    "bin_stats",
    "build_report",
    "reliability_points",
]

#: Absolute tolerance for the runtime check that the count-weighted per-bin
#: ECD sum matches the global per-datum mean.
ECD_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class BinSpec:
    """Even partition of [0, 1] into ``num_bins`` left-closed bins."""

    num_bins: int = 10

    def __post_init__(self) -> None:
        if (isinstance(self.num_bins, bool) or not isinstance(self.num_bins, numbers.Integral)
                or self.num_bins < 1):
            raise ValueError(f"num_bins must be an integer >= 1, got {self.num_bins!r}")

    @property
    def interior_edges(self) -> np.ndarray:
        """The M - 1 interior edges m/M for m = 1..M-1."""
        return np.arange(1, self.num_bins) / self.num_bins

    def interval(self, index: int) -> tuple[float, float]:
        """(lower, upper) bounds of bin ``index``."""
        if not (0 <= index < self.num_bins):
            raise ValueError(f"bin index {index} out of range for M={self.num_bins}")
        return index / self.num_bins, (index + 1) / self.num_bins


@dataclass(frozen=True)
class BinStats:
    """Statistics of one bin; value fields are None when the bin is empty."""

    index: int
    count: int
    populated: bool
    conf: Optional[float] = None
    frac_pos: Optional[float] = None
    ece_bin: Optional[float] = None
    esce_bin: Optional[float] = None
    ecd_bin: Optional[float] = None


@dataclass(frozen=True)
class CalibrationReport:
    """Per-bin statistics plus the weighted-sum scalars for one dataset.

    ``ece`` is in [0, 1] and ``esce`` in [-1, 1]. Under- and over-confident
    bins can cancel in ESCE, so a small value does not by itself mean good
    calibration; read it alongside ECE.
    """

    bins: tuple
    n_total: int
    ece: float
    esce: float
    ecd: float
    brier: float
    nll: float

    @property
    def num_bins(self) -> int:
        return len(self.bins)


#: Rows per slice in :func:`bin_indices`, so its float temporary is 64 KiB.
_INDEX_SLICE = 8192


def bin_indices(probs: np.ndarray, spec: BinSpec) -> np.ndarray:
    """Index of the bin holding each probability; 1.0 maps to the last bin.

    Probabilities must already be in [0, 1], as a :class:`Dataset` holds them,
    in a 1-D array or list. The result has the smallest unsigned dtype that
    holds M, ``np.min_scalar_type(M)``, and equals
    ``np.searchsorted(spec.interior_edges, probs, side="right")``: bin m holds
    the p with fl(m/M) <= p < fl((m+1)/M), and the last bin is closed at 1.

    The first guess is trunc(fl(p*M)), clamped to M - 1. Both fl(p*M) and
    each edge fl(k/M) lie within half an ulp, a relative u = 2**-53, of p*M
    and k/M. Let s be the searched index. A guess of s + 2 or more needs
    p*M >= (s+2)*(1 - u), while p < fl((s+1)/M) <= (s+1)/M*(1 + u); both
    hold only if (2s + 3)*u > 1. A guess of s - 2 or less needs
    p*M < (s-1)*(1 + u), while p >= fl(s/M) >= s/M*(1 - u); both hold only
    if (2s - 1)*u > 1. So the guess is off by at most one bin: one step down
    if p lies below the guessed bin's lower edge, then one step up if p
    reaches its upper edge, lands on the searched index.
    """
    p = np.asarray(probs, dtype=np.float64)
    m = spec.num_bins
    edges = np.concatenate([[-np.inf], spec.interior_edges, [np.inf]])
    lower, upper = edges[:-1], edges[1:]
    out = np.empty(p.shape, dtype=np.min_scalar_type(m))
    for start in range(0, p.size, _INDEX_SLICE):
        chunk = p[start:start + _INDEX_SLICE]
        idx = out[start:start + _INDEX_SLICE]
        guess = np.multiply(chunk, m)
        np.copyto(idx, np.minimum(guess, m - 1, out=guess), casting="unsafe")
        idx -= chunk < lower[idx]
        idx += chunk >= upper[idx]
    return out


def _bin_members(idx: np.ndarray, num_bins: int) -> list[np.ndarray]:
    """Per bin, the row numbers of its members in dataset order."""
    counts = np.bincount(idx, minlength=num_bins)
    # numpy's stable sort is a radix sort for ints of 16 bits or less, which
    # bin_indices returns for every M up to 65536.
    return np.split(np.argsort(idx, kind="stable"), np.cumsum(counts)[:-1])


def bin_stats(
    data: Dataset, spec: BinSpec = BinSpec(), policy: ClipPolicy = DEFAULT_CLIP
) -> list[BinStats]:
    """Per-bin confidence, fraction of positives, gaps, and mean ECD.

    Raises ``AssertionError`` if the count-weighted per-bin ECD differs from
    the global per-datum mean by more than ``ECD_CONSISTENCY_TOL``.
    """
    if len(data) < 1:
        raise ValueError("empty dataset")
    scores = ecd_sample_scores(data, policy)
    idx = bin_indices(data.probs, spec)
    groups = _bin_members(idx, spec.num_bins)
    # Positives are counted after the sort, whose buffers set the peak memory,
    # so that the label mask is not held alongside them.
    positives = np.bincount(idx[data.labels == 1], minlength=spec.num_bins).tolist()
    out: list[BinStats] = []
    for m, members in enumerate(groups):
        count = int(members.size)
        if count == 0:
            out.append(BinStats(index=m, count=0, populated=False))
            continue
        conf = pairwise_mean(data.probs[members])
        frac = positives[m] / count
        gap = frac - conf
        out.append(
            BinStats(
                index=m,
                count=count,
                populated=True,
                conf=conf,
                frac_pos=frac,
                ece_bin=abs(gap),
                esce_bin=gap,
                ecd_bin=pairwise_mean(scores[members]),
            )
        )
    ecd_weighted = _weighted(out, len(data), "ecd_bin")
    ecd_global = pairwise_mean(scores)
    if abs(ecd_weighted - ecd_global) > ECD_CONSISTENCY_TOL:
        raise AssertionError(
            "count-weighted per-bin ECD diverged from the global mean: "
            f"{ecd_weighted!r} vs {ecd_global!r}"
        )
    return out


def _weighted(bins: Sequence[BinStats], n_total: int, field: str) -> float:
    terms = [b.count * getattr(b, field) for b in bins if b.populated]
    return pairwise_sum(terms) / n_total


def build_report(
    data: Dataset, spec: BinSpec = BinSpec(), policy: ClipPolicy = DEFAULT_CLIP
) -> CalibrationReport:
    """Assemble the full calibration report for one dataset.

    The report ECD is the count-weighted sum of per-bin means; ``bin_stats``
    checks it against the global per-datum mean (the bin structure is
    reporting-only and must not change the score).
    """
    stats = bin_stats(data, spec, policy)
    n = len(data)
    return CalibrationReport(
        bins=tuple(stats),
        n_total=n,
        ece=_weighted(stats, n, "ece_bin"),
        esce=_weighted(stats, n, "esce_bin"),
        ecd=_weighted(stats, n, "ecd_bin"),
        brier=brier(data),
        nll=nll(data, policy),
    )


def reliability_points(bins: Sequence[BinStats]) -> list[tuple[float, float, int]]:
    """(conf, frac_pos, count) for populated bins, ordered by bin index."""
    ordered = sorted((b for b in bins if b.populated), key=lambda b: b.index)
    return [(b.conf, b.frac_pos, b.count) for b in ordered]
