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

A report is built from running sums, fed a block of rows at a time in row
order (:class:`_ReportSums`): per bin, the count, the positives and the sums
of the confidences and scores; over all rows, the sums of the scores and of
the Brier and NLL terms. Each sum is an :class:`entrocal._accumulate._Fold`,
whose total has the bits of the pairwise sum of its values in row order, so a
report of blocks is the report of their concatenation, bit for bit, and holds
one block at a time. A :class:`Dataset` is one block, taken in slices of
``_FOLD_ROWS`` rows.

Within a slice, each bin index is computed by arithmetic, trunc(p*M)
corrected by at most one step against the edges, and gives the same index as
a binary search over them. One stable sort by that index puts each bin's
members in row order, and one gather of the confidences and scores gives each
bin a slice of them. The fraction of positives is a count of positive labels
over the bin size: a pairwise sum of 0/1 values is an exact integer, so the
count gives the bits of the pairwise mean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ._accumulate import _Fold, pairwise_sum
# Not called here: bench/tracer.py times pairwise means by wrapping this name in this module.
from ._accumulate import pairwise_mean  # noqa: F401
from .metrics import DEFAULT_CLIP, ClipPolicy, Dataset, _brier_terms, _nll_terms, ecd_sample_scores

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


#: Rows a :class:`_ReportSums` takes at a time, so that its temporaries stay about 8 MiB.
_FOLD_ROWS = 1 << 18


class _ReportSums:
    """The running sums of a report of a :class:`Dataset`, or of its blocks in row order.

    Per bin, the positives and a fold of (probability, score) pairs, whose count
    is the bin's; over all rows, folds of the scores, Brier terms and NLL terms.
    """

    def __init__(self, data: Union[Dataset, Iterable[Dataset]], spec: BinSpec,
                 policy: ClipPolicy) -> None:
        self.spec, self.policy = spec, policy
        self.positives = np.zeros(spec.num_bins, dtype=np.int64)
        self.by_bin = [_Fold((2,)) for _ in range(spec.num_bins)]
        self.scores, self.brier, self.nll = _Fold(), _Fold(), _Fold()
        for block in [data] if isinstance(data, Dataset) else data:
            for lo in range(0, len(block), _FOLD_ROWS):
                rows = slice(lo, lo + _FOLD_ROWS)
                self._add(Dataset(block.probs[rows], block.labels[rows], _owned=True))
            del block  # so that the next block is read without this one

    def _add(self, data: Dataset) -> None:
        probs, labels = data.probs, data.labels
        self.brier.add(_brier_terms(probs, labels))
        self.nll.add(_nll_terms(probs, labels, self.policy))
        scores = ecd_sample_scores(data, self.policy)
        self.scores.add(scores)
        idx = bin_indices(probs, self.spec)
        counts = np.bincount(idx, minlength=self.spec.num_bins)
        self.positives += np.bincount(idx[labels == 1], minlength=self.spec.num_bins)
        # One stable sort puts each bin's rows in row order, and one gather of
        # the pairs gives each bin a slice. numpy's stable sort is a radix sort
        # for ints of 16 bits or less, which bin_indices returns for M <= 65536.
        order = np.argsort(idx, kind="stable")
        del idx
        pairs = np.empty((2, len(order)))  # rows, so that each tree level runs along them
        np.take(probs, order, out=pairs[0], mode="clip")  # "clip" writes unbuffered
        np.take(scores, order, out=pairs[1], mode="clip")
        del order, scores
        ends = np.cumsum(counts).tolist()
        for m in np.flatnonzero(counts).tolist():
            self.by_bin[m].add(pairs[:, ends[m] - counts[m] : ends[m]].T)

    def stats(self) -> list[BinStats]:
        """The bins, after a check of their count-weighted ECD against the global mean."""
        n = self.scores.count
        if n < 1:
            raise ValueError("empty dataset")
        out: list[BinStats] = []
        for m, (fold, positives) in enumerate(zip(self.by_bin, self.positives.tolist())):
            count = fold.count
            if count == 0:
                out.append(BinStats(index=m, count=0, populated=False))
                continue
            conf, ecd = (total / count for total in fold.total().tolist())
            frac = positives / count
            out.append(BinStats(m, count, True, conf, frac, abs(frac - conf), frac - conf, ecd))
        ecd_weighted = _weighted(out, n, "ecd_bin")
        ecd_global = float(self.scores.total()) / n
        if abs(ecd_weighted - ecd_global) > ECD_CONSISTENCY_TOL:
            raise AssertionError(
                "count-weighted per-bin ECD diverged from the global mean: "
                f"{ecd_weighted!r} vs {ecd_global!r}"
            )
        return out


def bin_stats(
    data: Dataset, spec: BinSpec = BinSpec(), policy: ClipPolicy = DEFAULT_CLIP
) -> list[BinStats]:
    """Per-bin confidence, fraction of positives, gaps, and mean ECD.

    Raises ``AssertionError`` if the count-weighted per-bin ECD differs from
    the global per-datum mean by more than ``ECD_CONSISTENCY_TOL``.
    """
    return _ReportSums(data, spec, policy).stats()


def _weighted(bins: Sequence[BinStats], n_total: int, field: str) -> float:
    terms = [b.count * getattr(b, field) for b in bins if b.populated]
    return pairwise_sum(terms) / n_total


def build_report(
    data: Union[Dataset, Iterable[Dataset]],
    spec: BinSpec = BinSpec(),
    policy: ClipPolicy = DEFAULT_CLIP,
) -> CalibrationReport:
    """Assemble the full calibration report for one dataset.

    ``data`` is a :class:`Dataset`, or an iterable of them taken as blocks of
    one dataset in row order, which gives the same report as their
    concatenation, bit for bit, and holds one block at a time.

    The report ECD is the count-weighted sum of per-bin means; it is checked
    against the global per-datum mean (the bin structure is reporting-only and
    must not change the score).
    """
    sums = _ReportSums(data, spec, policy)
    stats = sums.stats()
    n = sums.scores.count
    return CalibrationReport(
        bins=tuple(stats),
        n_total=n,
        ece=_weighted(stats, n, "ece_bin"),
        esce=_weighted(stats, n, "esce_bin"),
        ecd=_weighted(stats, n, "ecd_bin"),
        brier=float(sums.brier.total()) / n,
        nll=float(sums.nll.total()) / n,
    )


def reliability_points(bins: Sequence[BinStats]) -> list[tuple[float, float, int]]:
    """(conf, frac_pos, count) for populated bins, ordered by bin index."""
    ordered = sorted((b for b in bins if b.populated), key=lambda b: b.index)
    return [(b.conf, b.frac_pos, b.count) for b in ordered]
