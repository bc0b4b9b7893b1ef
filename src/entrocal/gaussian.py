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

Every record goes through one stacked validator, :func:`_validate`, over
means and truths (N, d) and covariances (N, d, d): the ``gaussian`` command
validates a whole file at once, and :class:`GaussianPrediction` is its N = 1
view. Every quadratic form is one numpy kernel, :func:`_mahalanobis_sq_rows`,
a forward substitution over stacked factors, called once per list.
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


class _InvalidPrediction(ValueError):
    """Prediction ``index`` of a stack, the first such one, cannot be scored."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"prediction {index}: {reason}")
        self.index = index
        self.reason = reason


@np.errstate(all="ignore")  # NaN, inf and overflow are reported, so numpy need not warn
def _validate(mean: np.ndarray, cov: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Cholesky factors (N, d, d) of stacked records: means, truths (N, d), covariances (N, d, d).

    Raises :class:`_InvalidPrediction` for the first record whose shapes (record 0's: a
    stack shares them) or covariance (not finite, symmetric within :data:`SYMMETRY_TOL`
    or positive-definite) are invalid. d <= 2 factor by closed forms over the stack, the
    operations of a per-matrix closed form and so its bits; larger d by one LAPACK call.
    """
    n, d = mean.shape
    if d < 1:
        raise _InvalidPrediction(0, "state dimension must be >= 1")
    if truth.shape != mean.shape or cov.shape != (n, d, d):
        raise _InvalidPrediction(
            0, f"dimension mismatch: mean {d}, truth {truth.shape[1]}, covariance {cov.shape[1:]}"
        )
    if d == 1:
        chol = np.sqrt(cov)
    elif d == 2:
        chol = np.zeros(cov.shape)
        a = np.sqrt(cov[:, 0, 0], out=chol[:, 0, 0])
        l10 = np.divide(cov[:, 1, 0], a, out=chol[:, 1, 0])
        np.sqrt(cov[:, 1, 1] - l10 * l10, out=chol[:, 1, 1])
    else:
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:  # a matrix at a time, up to the first failure
            chol = np.full(cov.shape, np.nan)
            for c, out in zip(cov, chol):
                try:
                    out[...] = np.linalg.cholesky(c)
                except np.linalg.LinAlgError:
                    break
    last = chol[:, -1, -1]
    # Whole-stack checks first. A factor exists where its last pivot is in (0,
    # inf), which for d = 1, sqrt(C), also says C is finite; Python compares the
    # N pivots, as one numpy reduction costs more at N = 1, the stack of every
    # GaussianPrediction. For d >= 2, NaN or inf makes a gap |C_ij - C_ji| NaN
    # (C_ii - C_ii too), and a gap within SYMMETRY_TOL is within every record's
    # bound, SYMMETRY_TOL * max(1, max |C_ij|).
    if all(0.0 < x < math.inf for x in last.tolist()) and (
            d == 1 or np.abs(cov - cov.swapaxes(1, 2)).max() <= SYMMETRY_TOL):
        return chol
    amax = np.abs(cov).max(axis=(1, 2))
    finite = amax < math.inf  # False for NaN too
    symmetric = (np.abs(cov - cov.swapaxes(1, 2)).max(axis=(1, 2))
                 <= SYMMETRY_TOL * np.maximum(1.0, amax))
    valid = finite & symmetric & (last > 0.0)
    if valid.all():
        return chol
    i = int(np.argmin(valid))
    raise _InvalidPrediction(i, "covariance must be finite" if not finite[i]
                             else f"covariance is not symmetric within {SYMMETRY_TOL}"
                             if not symmetric[i] else "covariance is not positive-definite")


@dataclass(frozen=True, eq=False, init=False)
class GaussianPrediction:
    """Predicted mean and covariance for one estimate, with the true state.

    The covariance must be symmetric positive-definite; its Cholesky factor
    is computed once at construction and reused by every score.
    """

    mean: np.ndarray
    covariance: np.ndarray
    truth: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, mean, covariance, truth) -> None:
        mean = np.asarray(mean, dtype=np.float64).ravel()
        truth = np.asarray(truth, dtype=np.float64).ravel()
        cov = np.asarray(covariance, dtype=np.float64)
        try:
            chol = _validate(mean[None], cov[None], truth[None])[0]
        except _InvalidPrediction as exc:  # one record: no index to name
            raise ValueError(exc.reason) from None
        # Frozen: set the fields once, past the dataclass __setattr__ guard.
        self.__dict__.update(mean=mean, covariance=cov, truth=truth, chol=chol)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


# Finite input can still overflow (a tiny variance, a huge residual); it is
# reported, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def _mahalanobis_sq_rows(chol: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """||L_i^-1 r_i||^2 for lower factors ``chol`` (N, d, d) and ``resid`` (N, d).

    Solves column by column across all N systems and sums squares left to
    right, so d <= 2 match the scalar closed forms bit for bit. Raises
    :class:`_InvalidPrediction` for the first row whose distance is not finite.
    """
    z = np.empty_like(resid)
    total = np.zeros(resid.shape[0])
    for j in range(resid.shape[1]):
        acc = resid[:, j]
        for k in range(j):
            acc = acc - chol[:, j, k] * z[:, k]
        z[:, j] = acc / chol[:, j, j]
        total = total + z[:, j] * z[:, j]
    finite = np.isfinite(total)
    if not finite.all():
        raise _InvalidPrediction(
            int(np.argmin(finite)), "squared Mahalanobis distance overflows"
        )
    return total


@np.errstate(over="ignore")
def _nees(chol: np.ndarray, truth: np.ndarray, mean: np.ndarray) -> float:
    """NEES of validated factors (N, d, d) for truths and means (N, d).

    Raises :class:`_InvalidPrediction` for the first row with NaN or inf in its truth or
    mean, then for the first whose residual overflows (values about 1.8e308 apart).
    """
    finite = np.isfinite(truth).all(axis=1) & np.isfinite(mean).all(axis=1)
    if not finite.all():
        raise _InvalidPrediction(int(np.argmin(finite)), "mean and truth must be finite")
    resid = truth - mean
    finite = np.isfinite(resid).all(axis=1)
    if not finite.all():
        raise _InvalidPrediction(int(np.argmin(finite)), "truth - mean overflows")
    value = pairwise_mean(_mahalanobis_sq_rows(chol, resid))
    if not math.isfinite(value):
        raise ValueError("NEES overflows: the sum of squared Mahalanobis distances is not finite")
    return value


def mahalanobis_sq(pred: GaussianPrediction) -> float:
    """Squared Mahalanobis distance of the truth from the predicted Gaussian.

    Computed as ||L^-1 (x - mu)||^2 with L the Cholesky factor, the NEES of
    one prediction; >= 0, and 0 exactly when truth equals mean.
    """
    return _nees(pred.chol[None], pred.truth[None], pred.mean[None])


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
    return _nees(chol, truth, mean)


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
    cov = np.asarray(covariance, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be a square matrix, got shape {cov.shape}")
    d = cov.shape[0]
    chol = GaussianPrediction(np.zeros(d), cov, np.zeros(d)).chol
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (d * _LOG_2PI + logdet + d)
