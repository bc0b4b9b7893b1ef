"""Consistency scores for Gaussian state estimates: NEES and Gaussian ECD.

NEES (normalized estimation error squared) is the mean Mahalanobis-squared
residual of the true state against the predicted covariance; a consistent
estimator averages to the state dimension d. The Gaussian ECD is (NEES - d)/2:
zero for a consistent estimator, positive when the reported covariance is too
small (over-confidence), negative when it is too large.

The same value falls out of the generic entropy-minus-likelihood form:
``gaussian_negative_entropy(C) - gaussian_log_density(pred)`` equals
``mahalanobis_sq(pred)/2 - d/2`` per sample, which the tests exploit as an
independent route.

Quadratic forms and log-determinants are computed from a Cholesky
factorization; the covariance inverse is never formed explicitly. A
covariance that fails the factorization is a hard error, never silently
regularized: a miscalibration metric must not mask an invalid uncertainty
model. NaN or inf in a mean, covariance or truth is a hard error too, and so
is a residual ``truth - mean``, a squared distance or a NEES that overflows
to inf.

Every quadratic form is one numpy kernel, :func:`_mahalanobis_sq_rows`, a
forward substitution over stacked factors: :func:`nees` calls it once per
list, :func:`mahalanobis_sq` with N = 1. The per-prediction factorization
keeps closed forms for d <= 2 (about 2 us against 8 us for LAPACK), since it
dominates the cost of building many small predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._accumulate import pairwise_mean

__all__ = [
    "GaussianPrediction",
    "mahalanobis_sq",
    "nees",
    "ecd_gaussian",
    "gaussian_log_density",
    "gaussian_negative_entropy",
]

_LOG_2PI = math.log(2.0 * math.pi)

#: Relative tolerance on |C - C^T| for accepting a covariance as symmetric.
SYMMETRY_TOL = 1e-9


def _cholesky_spd(cov: np.ndarray, what: str = "covariance") -> np.ndarray:
    c = np.asarray(cov, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {c.shape}")
    if c.shape[0] > 1:
        amax = float(np.abs(c).max())
        if not amax < math.inf:  # NaN or inf
            raise ValueError(f"{what} must be finite")
        if float(np.abs(c - c.T).max()) > SYMMETRY_TOL * max(1.0, amax):
            raise ValueError(f"{what} is not symmetric within {SYMMETRY_TOL}")
    # Closed forms for d <= 2 skip a LAPACK round trip on the hot path.
    if c.shape[0] == 1:
        v = c[0, 0]
        if not v > 0.0:
            raise ValueError(f"{what} is not positive-definite")
        return np.array([[math.sqrt(v)]])
    if c.shape[0] == 2:
        a_sq, b, d_val = c[0, 0], c[1, 0], c[1, 1]
        if not a_sq > 0.0:
            raise ValueError(f"{what} is not positive-definite")
        a = math.sqrt(a_sq)
        l10 = b / a
        rest = d_val - l10 * l10
        if not rest > 0.0:
            raise ValueError(f"{what} is not positive-definite")
        return np.array([[a, 0.0], [l10, math.sqrt(rest)]])
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} is not positive-definite") from None


@dataclass(frozen=True, eq=False)
class GaussianPrediction:
    """Predicted mean and covariance for one estimate, with the true state.

    The covariance must be symmetric positive-definite; its Cholesky factor
    is computed once at construction and reused by every score.
    """

    mean: np.ndarray
    covariance: np.ndarray
    truth: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        truth = np.asarray(self.truth, dtype=np.float64).ravel()
        cov = np.asarray(self.covariance, dtype=np.float64)
        d = mean.size
        if d < 1:
            raise ValueError("state dimension must be >= 1")
        if truth.size != d or cov.shape != (d, d):
            raise ValueError(
                f"dimension mismatch: mean {d}, truth {truth.size}, covariance {cov.shape}"
            )
        chol = _cholesky_spd(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "chol", chol)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


class _NonFinitePrediction(ValueError):
    """Prediction ``index`` of a stack, the first such one, cannot be scored."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"prediction {index}: {reason}")
        self.index = index
        self.reason = reason


def _mahalanobis_sq_rows(chol: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """||L_i^-1 r_i||^2 for lower factors ``chol`` (N, d, d) and ``resid`` (N, d).

    Solves column by column across all N systems and sums squares left to
    right, so d <= 2 match the scalar closed forms bit for bit. Raises
    :class:`_NonFinitePrediction` for the first row whose distance is not
    finite; inputs are checked by :func:`_residuals`.
    """
    z = np.empty_like(resid)
    total = np.zeros(resid.shape[0])
    # Finite input can still overflow (a tiny variance, a huge residual); the
    # check below reports it, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(resid.shape[1]):
            acc = resid[:, j]
            for k in range(j):
                acc = acc - chol[:, j, k] * z[:, k]
            z[:, j] = acc / chol[:, j, j]
            total = total + z[:, j] * z[:, j]
    finite = np.isfinite(total)
    if not finite.all():
        raise _NonFinitePrediction(
            int(np.argmin(finite)), "squared Mahalanobis distance overflows"
        )
    return total


def _residuals(chol: np.ndarray, truth: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``truth - mean`` (N, d) for the stacked inputs of :func:`_mahalanobis_sq_rows`.

    Raises :class:`_NonFinitePrediction` for the first row with NaN or inf in
    its factor, truth or mean, then for the first finite row whose residual
    overflows (values about 1.8e308 apart).
    """
    finite = (
        np.isfinite(chol).all(axis=(1, 2))
        & np.isfinite(truth).all(axis=1)
        & np.isfinite(mean).all(axis=1)
    )
    if not finite.all():
        raise _NonFinitePrediction(
            int(np.argmin(finite)), "mean, covariance and truth must be finite"
        )
    with np.errstate(over="ignore"):
        resid = truth - mean
    finite = np.isfinite(resid).all(axis=1)
    if not finite.all():
        raise _NonFinitePrediction(int(np.argmin(finite)), "truth - mean overflows")
    return resid


def mahalanobis_sq(pred: GaussianPrediction) -> float:
    """Squared Mahalanobis distance of the truth from the predicted Gaussian.

    Computed as ||L^-1 (x - mu)||^2 with L the Cholesky factor; >= 0, and 0
    exactly when truth equals mean.
    """
    chol = pred.chol[None]
    resid = _residuals(chol, pred.truth[None], pred.mean[None])
    return float(_mahalanobis_sq_rows(chol, resid)[0])


def nees(preds: Sequence[GaussianPrediction]) -> float:
    """Mean Mahalanobis-squared residual; expectation is d when consistent."""
    if len(preds) < 1:
        raise ValueError("empty prediction list")
    n, d = len(preds), preds[0].dim
    for i, p in enumerate(preds):
        if p.dim != d:
            raise ValueError(f"mixed dimensions: prediction {i} has d={p.dim}, expected {d}")
    chol = np.concatenate([p.chol for p in preds]).reshape(n, d, d)
    truth = np.concatenate([p.truth for p in preds]).reshape(n, d)
    mean = np.concatenate([p.mean for p in preds]).reshape(n, d)
    resid = _residuals(chol, truth, mean)
    with np.errstate(over="ignore"):
        value = pairwise_mean(_mahalanobis_sq_rows(chol, resid))
    if not math.isfinite(value):
        raise ValueError("NEES overflows: the sum of squared Mahalanobis distances is not finite")
    return value


def ecd_gaussian(preds: Sequence[GaussianPrediction]) -> float:
    """Gaussian ECD, computed as (nees - d) / 2.

    Zero for a consistent estimator; positive when residuals are large
    relative to the reported covariance (over-confidence), negative when
    the covariance over-states the error (under-confidence).
    """
    return (nees(preds) - preds[0].dim) / 2.0


def gaussian_log_density(pred: GaussianPrediction) -> float:
    """Log density of the truth under the predicted Gaussian."""
    logdet = 2.0 * float(np.sum(np.log(np.diag(pred.chol))))
    return -0.5 * (pred.dim * _LOG_2PI + logdet + mahalanobis_sq(pred))


def gaussian_negative_entropy(covariance) -> float:
    """Negative differential entropy of a Gaussian with the given covariance."""
    chol = _cholesky_spd(covariance)
    d = chol.shape[0]
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (d * _LOG_2PI + logdet + d)
