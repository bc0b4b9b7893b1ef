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
applies to every logarithmic metric in this module (ECD, NLL, entropy);
the Brier score uses raw probabilities.

All natural logarithms. All dataset means use the deterministic pairwise
reduction from :mod:`entrocal._accumulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._accumulate import pairwise_mean, pairwise_sum_rows

__all__ = [
    "ClipPolicy",
    "DEFAULT_CLIP",
    "PredictionRecord",
    "Dataset",
    "DiscreteDistribution",
    "ECD_BINARY_LOWER_BOUND",
    "clip_probability",
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
    are never clipped.
    """

    epsilon: float = 1e-4

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")


DEFAULT_CLIP = ClipPolicy()


@dataclass(frozen=True)
class PredictionRecord:
    """One estimated positive-class probability paired with its true label."""

    prob: float
    label: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


class Dataset:
    """Ordered collection of binary prediction records.

    Stored as parallel numpy arrays (float64 probabilities, int64 labels).
    The arrays are frozen after validation so iteration order and therefore
    every aggregate score is deterministic. Probabilities exactly 0 or 1 are
    accepted; clipping happens at metric time.
    """

    __slots__ = ("probs", "labels")

    def __init__(self, probs, labels) -> None:
        p = np.array(probs, dtype=np.float64).ravel()
        y = np.array(labels).ravel()
        if p.size != y.size:
            raise ValueError(f"probs and labels differ in length: {p.size} != {y.size}")
        if p.size and (not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0):
            raise ValueError("probs must be finite and within [0, 1]")
        if y.size and not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        y = y.astype(np.int64)
        p.setflags(write=False)
        y.setflags(write=False)
        self.probs = p
        self.labels = y

    @classmethod
    def from_records(cls, records: Iterable[PredictionRecord]) -> "Dataset":
        recs = list(records)
        return cls([r.prob for r in recs], [r.label for r in recs])

    def __len__(self) -> int:
        return int(self.probs.size)

    def __iter__(self) -> Iterator[PredictionRecord]:
        for p, y in zip(self.probs, self.labels):
            yield PredictionRecord(float(p), int(y))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.probs, other.probs) and np.array_equal(
            self.labels, other.labels
        )

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)})"


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over K >= 2 classes."""

    probs: tuple

    def __init__(self, probs: Sequence[float]) -> None:
        p = _distribution_rows(np.asarray(probs, dtype=np.float64).reshape(1, -1))[0]
        object.__setattr__(self, "probs", tuple(float(v) for v in p))

    @property
    def num_classes(self) -> int:
        return len(self.probs)


def _require_nonempty(n: int) -> None:
    if n < 1:
        raise ValueError("empty dataset")


def clip_probability(p: float, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Clamp ``p`` to [epsilon, 1 - epsilon]; identity on interior points."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return float(min(max(p, policy.epsilon), 1.0 - policy.epsilon))


def _binary_scores(probs: np.ndarray, labels: np.ndarray, policy: ClipPolicy) -> np.ndarray:
    q = np.clip(probs, policy.epsilon, 1.0 - policy.epsilon)
    return (q - labels) * (np.log(q) - np.log(1.0 - q))


def ecd_sample_binary(prob: float, label: int, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Per-datum binary ECD score ``(p - x) * ln(p / (1 - p))`` on the clipped p.

    Exactly 0 when the clipped probability is 0.5. Positive for probabilities
    on the wrong side of 0.5 relative to the label (over-confidence), negative
    and bounded below by :data:`ECD_BINARY_LOWER_BOUND` otherwise.
    """
    rec = PredictionRecord(prob, label)
    return float(_binary_scores(np.array([rec.prob]), np.array([rec.label]), policy)[0])


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


def _discrete_terms(
    rows: np.ndarray, labels: np.ndarray, policy: ClipPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row negative entropy and log-likelihood of ``labels`` for (N, K) rows.

    The one expression behind every discrete score: the per-sample ECD is
    the first minus the second, and the scalar functions are its N = 1 view.
    """
    bad = (labels < 0) | (labels >= rows.shape[1])
    if bad.any():
        raise ValueError(
            f"label {labels[bad][0]} out of range for {rows.shape[1]}-class distribution"
        )
    c = np.clip(rows, policy.epsilon, 1.0 - policy.epsilon)
    log_lik = np.log(c[np.arange(c.shape[0]), labels.astype(np.int64)])
    return pairwise_sum_rows(c * np.log(c)), log_lik


def negative_entropy(dist: DiscreteDistribution, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Sum of p_k * ln(p_k) over the clipped entries; always <= 0."""
    return float(_discrete_terms(np.array([dist.probs]), np.zeros(1), policy)[0][0])


def log_likelihood(
    dist: DiscreteDistribution, label: int, policy: ClipPolicy = DEFAULT_CLIP
) -> float:
    """Natural log of the clipped probability assigned to the true class."""
    return float(_discrete_terms(np.array([dist.probs]), np.array([label]), policy)[1][0])


def _distribution_rows(matrix: np.ndarray) -> np.ndarray:
    """Validate (N, K) row distributions; rows sum to 1 by the pairwise tree."""
    rows = np.asarray(matrix, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected an (N, K) array, got shape {rows.shape}")
    if rows.shape[1] < 2:
        raise ValueError(f"need at least 2 classes, got {rows.shape[1]}")
    if not np.all((rows >= 0.0) & (rows <= 1.0)):  # NaN fails both comparisons
        raise ValueError("entries must be finite and within [0, 1]")
    if rows.size and np.abs(pairwise_sum_rows(rows) - 1.0).max() > 1e-9:
        raise ValueError("each row must sum to 1 within 1e-9")
    return rows


def ecd_discrete(
    dists,
    labels: Sequence[int],
    policy: ClipPolicy = DEFAULT_CLIP,
) -> float:
    """General K-class ECD: mean of negative entropy minus log-likelihood.

    ``dists`` is a sequence of :class:`DiscreteDistribution` or an (N, K)
    array of row distributions, validated the same way. Objects are
    grouped by class count and each group is scored as one array, so both
    forms run the same arithmetic. For two-class distributions (1 - p, p)
    the result reduces algebraically to :func:`ecd_binary` on (p, label);
    the pair serves as a mutual check.
    """
    y = np.asarray(labels)
    if isinstance(dists, np.ndarray):
        rows = _distribution_rows(dists)
        n, groups = rows.shape[0], [(slice(None), rows)]
    else:
        dists = list(dists)
        if not all(isinstance(d, DiscreteDistribution) for d in dists):
            raise TypeError("dists must be DiscreteDistribution objects or an (N, K) array")
        n = len(dists)
        ks = np.array([d.num_classes for d in dists])
        groups = [
            (idx, np.array([dists[i].probs for i in idx]))
            for idx in (np.flatnonzero(ks == k) for k in np.unique(ks))
        ]
    if n != y.size:
        raise ValueError(f"length mismatch: {n} distributions, {y.size} labels")
    _require_nonempty(n)
    scores = np.empty(n)
    for idx, rows in groups:
        neg_entropy, log_lik = _discrete_terms(rows, y[idx], policy)
        scores[idx] = neg_entropy - log_lik
    return pairwise_mean(scores)


def nll(data: Dataset, policy: ClipPolicy = DEFAULT_CLIP) -> float:
    """Mean negative log-likelihood of the labels under the clipped probabilities."""
    _require_nonempty(len(data))
    q = np.clip(data.probs, policy.epsilon, 1.0 - policy.epsilon)
    x = data.labels
    return pairwise_mean(-(x * np.log(q) + (1 - x) * np.log(1.0 - q)))


def brier(data: Dataset) -> float:
    """Mean squared error between raw probabilities and outcomes, in [0, 1]."""
    _require_nonempty(len(data))
    return pairwise_mean((data.probs - data.labels) ** 2)


def ecd_curve(
    grid_size: int, policy: ClipPolicy = DEFAULT_CLIP
) -> list[tuple[float, float, float]]:
    """Per-datum ECD evaluated on an even probability grid, for both labels.

    Returns ``(prob, score_label0, score_label1)`` triples over
    [epsilon, 1 - epsilon]. Feeds the score-curve SVG emitter.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    grid = np.linspace(policy.epsilon, 1.0 - policy.epsilon, grid_size)
    s0 = _binary_scores(grid, np.zeros_like(grid), policy)
    s1 = _binary_scores(grid, np.ones_like(grid), policy)
    return [(float(p), float(a), float(b)) for p, a, b in zip(grid, s0, s1)]
