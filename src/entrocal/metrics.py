"""Closed-form calibration scores for probabilistic predictions.

The central quantity is the entropic calibration difference (ECD): for each
prediction it takes the negative entropy of the predicted distribution minus
the log-likelihood of the observed outcome, then averages over the dataset.
Positive scores mean over-confidence, negative scores mean under-confidence,
and the per-datum score for a binary prediction is bounded below by about
-0.27846 (attained near p = 0.7822 when the label is 1; see
:data:`ECD_BINARY_LOWER_BOUND`).

For a binary prediction with estimated positive-class probability p and
label x the two terms collapse to the single summand

    (p - x) * ln(p / (1 - p))

evaluated on the clipped probability. Clipping (see :class:`ClipPolicy`)
applies to every logarithmic metric in this module (ECD, NLL, entropy) and
keeps their logs finite; the Brier score uses raw probabilities.

All natural logarithms. All dataset means use the deterministic pairwise
reduction from :mod:`entrocal._accumulate`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._accumulate import pairwise_mean, pairwise_sum_rows

__all__ = [
    "ClipPolicy",
    "Dataset",
    "ECD_BINARY_LOWER_BOUND",
    "ecd_sample_binary",
    "ecd_sample_scores",
    "ecd_binary",
    "negative_entropy",
    "log_likelihood",
    "ecd_discrete",
    "nll",
    "brier",
    "ecd_curve",
]

#: Numerically located minimum of the per-datum binary ECD over clipped
#: probabilities (epsilon = 1e-4). The minimizing probability is ~0.78219
#: for label 1 (mirrored for label 0).
ECD_BINARY_LOWER_BOUND = -0.27846454276107374


@dataclass(frozen=True)
class ClipPolicy:
    """Clip bound applied inside logarithmic terms.

    Probabilities are clamped to [epsilon, 1 - epsilon] before entering any
    logarithm, which removes the singularities at 0 and 1 while leaving
    interior values untouched. Raw probabilities (Brier, bin confidence)
    are never clipped. Epsilon lies in (0, 0.5) and above 2**-54, so 1 - epsilon < 1.
    """

    epsilon: float = 1e-4

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if 1.0 - self.epsilon == 1.0:
            raise ValueError(f"epsilon must be above 2**-54, so that 1 - epsilon is below 1; "
                             f"got {self.epsilon}")


#: The clip policy of every score that is given none.
DEFAULT_CLIP = ClipPolicy()


class Dataset:
    """Ordered binary predictions: probabilities (N,) and their labels (N,).

    Stored as parallel numpy arrays (float64 probabilities, int64 labels).
    The arrays are frozen after validation so iteration order and therefore
    every aggregate score is deterministic. Probabilities exactly 0 or 1 are
    accepted; clipping happens at metric time.
    """

    __slots__ = ("probs", "labels")

    def __init__(self, probs, labels, *, _owned: bool = False) -> None:
        # _owned: the CSV reader hands over 1-D arrays that no one else holds,
        # which are frozen as they are rather than copied.
        p, y = probs, labels
        if not _owned:
            p, y = np.array(probs, dtype=np.float64).ravel(), np.array(labels).ravel()
        if p.size != y.size:
            raise ValueError(f"probs and labels differ in length: {p.size} != {y.size}")
        if p.size and (not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0):
            raise ValueError("probs must be finite and within [0, 1]")
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("labels must be 0 or 1")
        y = y.astype(np.int64, copy=False)
        p.setflags(write=False)
        y.setflags(write=False)
        self.probs = p
        self.labels = y

    def __len__(self) -> int:
        return int(self.probs.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.probs, other.probs) and np.array_equal(
            self.labels, other.labels
        )

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)})"


def _require_nonempty(n: int) -> None:
    if n < 1:
        raise ValueError("empty dataset")


def _binary_scores(probs: np.ndarray, labels: np.ndarray, policy: ClipPolicy) -> np.ndarray:
    """``(q - labels) * (ln q - ln(1 - q))`` on the clipped q."""
    q = np.clip(probs, policy.epsilon, 1.0 - policy.epsilon)
    return (q - labels) * (np.log(q) - np.log(1.0 - q))


def ecd_sample_binary(prob: float, label: int, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Per-datum binary ECD score ``(p - x) * ln(p / (1 - p))`` on the clipped p.

    Exactly 0 when the clipped probability is 0.5. Positive for probabilities
    on the wrong side of 0.5 relative to the label (over-confidence), negative
    and bounded below by :data:`ECD_BINARY_LOWER_BOUND` otherwise. The N = 1
    view of :func:`ecd_sample_scores`, so :class:`Dataset` validates the pair.
    """
    return float(ecd_sample_scores(Dataset([prob], [label]), policy)[0])


def ecd_sample_scores(data: Dataset, policy: ClipPolicy = DEFAULT_CLIP) -> np.ndarray:
    """Vector of per-datum binary ECD scores, in dataset order.

    This is the public per-sample form that binning and the score curve
    build on; ``ecd_binary`` is its pairwise mean.
    """
    return _binary_scores(data.probs, data.labels, policy)


def ecd_binary(data: Dataset, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Mean per-datum binary ECD over the dataset."""
    _require_nonempty(len(data))
    return pairwise_mean(ecd_sample_scores(data, policy))


def _distribution_rows(probs) -> np.ndarray:
    """The (N, K) float64 rows of ``probs``, validated; rows sum to 1 by the pairwise tree.

    A shape error concerns the whole array; any other error names its first bad row.
    """
    try:
        rows = np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows, or an entry that is no real number
        sizes = []
        for i, row in enumerate(probs):
            try:  # a ValueError too if the row is a number or nested, not 1-D
                (k,) = np.asarray(row, dtype=np.float64).shape
            except (TypeError, ValueError):
                raise ValueError(f"row {i}: entries must be real numbers") from None
            sizes.append(k)
            if k != sizes[0]:
                raise ValueError(f"row {i}: length {k} differs from row 0's {sizes[0]}") from None
        raise
    if rows.ndim != 2:
        raise ValueError(f"expected an (N, K) array, got shape {rows.shape}")
    if rows.shape[1] < 2:
        raise ValueError(f"need at least 2 classes, got {rows.shape[1]}")
    bad = ~((rows >= 0.0) & (rows <= 1.0)).all(axis=1)  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"row {bad.argmax()}: entries must be finite and within [0, 1]")
    bad = np.abs(pairwise_sum_rows(rows) - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"row {bad.argmax()}: each row must sum to 1 within 1e-9")
    return rows


def _discrete_terms(
    rows: np.ndarray, labels, policy: ClipPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row negative entropy and log-likelihood of ``labels`` for validated (N, K) rows.

    The one expression behind every discrete score: the per-sample ECD is
    the first minus the second. A label error names its first bad row.
    """
    y = np.asarray(labels).ravel()
    if rows.shape[0] != y.size:
        raise ValueError(f"length mismatch: {rows.shape[0]} distributions, {y.size} labels")
    if y.dtype.kind not in "biuf":  # text or objects: name the first entry that is no number
        for i, label in enumerate(y.tolist()):
            if not isinstance(label, (int, float)):
                raise ValueError(f"row {i}: label {label!r} is not an integer class index")
        y = y.astype(np.float64)
    bad = ~(np.isfinite(y) & (np.floor(y) == y))  # 1.0 is class 1
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"row {i}: label {y[i]} is not an integer class index")
    bad = (y < 0) | (y >= rows.shape[1])
    if bad.any():
        i = bad.argmax()
        raise ValueError(
            f"row {i}: label {y[i]} out of range for {rows.shape[1]}-class distribution"
        )
    c = np.clip(rows, policy.epsilon, 1.0 - policy.epsilon)
    log_lik = np.log(c[np.arange(c.shape[0]), y.astype(np.int64)])
    return pairwise_sum_rows(c * np.log(c)), log_lik


def negative_entropy(probs, policy: ClipPolicy = DEFAULT_CLIP) -> np.ndarray:
    """Per-row sum of p_k * ln(p_k) over the clipped entries of (N, K) rows; each <= 0."""
    rows = _distribution_rows(probs)
    return _discrete_terms(rows, np.zeros(rows.shape[0]), policy)[0]


def log_likelihood(
    probs, labels: Sequence[int], policy: ClipPolicy = DEFAULT_CLIP
) -> np.ndarray:
    """Per-row natural log of the clipped probability assigned to the true class."""
    return _discrete_terms(_distribution_rows(probs), labels, policy)[1]


def ecd_discrete(probs, labels: Sequence[int], policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """General K-class ECD over (N, K) rows: mean of negative entropy minus log-likelihood.

    For two-class rows (1 - p, p) the result reduces algebraically to
    :func:`ecd_binary` on (p, label); the pair serves as a mutual check.
    """
    rows = _distribution_rows(probs)
    neg_entropy, log_lik = _discrete_terms(rows, labels, policy)
    _require_nonempty(rows.shape[0])
    return pairwise_mean(neg_entropy - log_lik)


def _nll_terms(probs: np.ndarray, labels: np.ndarray, policy: ClipPolicy) -> np.ndarray:
    """Per-datum ``-(x ln q + (1 - x) ln(1 - q))`` on the clipped q.

    Both logs are finite, so the term is -ln q where x is 1 and -ln(1 - q)
    where it is 0, exactly.
    """
    q = np.clip(probs, policy.epsilon, 1.0 - policy.epsilon)
    return -np.where(labels == 0, np.log(1.0 - q), np.log(q))


def _brier_terms(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-datum squared error ``(p - x) ** 2`` of the raw probabilities."""
    return (probs - labels) ** 2


def nll(data: Dataset, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Mean negative log-likelihood of the labels under the clipped probabilities."""
    _require_nonempty(len(data))
    return pairwise_mean(_nll_terms(data.probs, data.labels, policy))


def brier(data: Dataset) -> float:
    """Mean squared error between raw probabilities and outcomes, in [0, 1]."""
    _require_nonempty(len(data))
    return pairwise_mean(_brier_terms(data.probs, data.labels))


def ecd_curve(
    grid_size: int, policy: ClipPolicy = DEFAULT_CLIP
) -> list[tuple[float, float, float]]:
    """Per-datum ECD evaluated on an even probability grid, for both labels.

    Returns ``(prob, score_label0, score_label1)`` triples over
    [epsilon, 1 - epsilon]. Feeds the score-curve SVG emitter.
    """
    if not isinstance(grid_size, numbers.Integral) or grid_size < 2:
        raise ValueError(f"grid_size must be an integer >= 2, got {grid_size!r}")
    grid = np.linspace(policy.epsilon, 1.0 - policy.epsilon, grid_size)
    s0 = _binary_scores(grid, np.zeros_like(grid), policy)
    s1 = _binary_scores(grid, np.ones_like(grid), policy)
    return [(float(p), float(a), float(b)) for p, a, b in zip(grid, s0, s1)]
