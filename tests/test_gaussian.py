import math

import numpy as np
import pytest

from entrocal import (
    GaussianPrediction,
    ecd_gaussian,
    gaussian_log_density,
    gaussian_negative_entropy,
    mahalanobis_sq,
    nees,
)
from entrocal.gaussian import _InvalidPrediction, _mahalanobis_sq_rows, _validate

LOG_2PI = math.log(2.0 * math.pi)


def pred_1d(mean, sigma, truth):
    return GaussianPrediction(
        mean=np.array([mean]), covariance=np.array([[sigma**2]]), truth=np.array([truth])
    )


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + (0.1 + rng.random()) * np.eye(d))


def random_pred(rng, d, scale=1.0):
    return GaussianPrediction(
        mean=rng.normal(size=d),
        covariance=random_spd(rng, d, scale),
        truth=rng.normal(size=d),
    )


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_rejects_non_spd():
    with pytest.raises(ValueError, match="positive-definite"):
        pred_1d(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="positive-definite"):
        GaussianPrediction(
            mean=np.zeros(2),
            covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),
            truth=np.zeros(2),
        )


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianPrediction(
            mean=np.zeros(2),
            covariance=np.array([[1.0, 0.5], [0.1, 1.0]]),
            truth=np.zeros(2),
        )


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        GaussianPrediction(mean=np.zeros(2), covariance=np.eye(2), truth=np.zeros(3))
    with pytest.raises(ValueError, match="dimension|square"):
        GaussianPrediction(mean=np.zeros(2), covariance=np.zeros((2, 3)), truth=np.zeros(2))


def test_accepts_tiny_asymmetry():
    cov = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    p = GaussianPrediction(mean=np.zeros(2), covariance=cov, truth=np.zeros(2))
    assert p.dim == 2


def test_cholesky_matches_lapack_small_d():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4):
        for _ in range(100):
            cov = random_spd(rng, d)
            p = GaussianPrediction(mean=np.zeros(d), covariance=cov, truth=np.zeros(d))
            np.testing.assert_allclose(p.chol, np.linalg.cholesky(cov), rtol=1e-12)


# ---------------------------------------------------------------------------
# mahalanobis_sq
# ---------------------------------------------------------------------------


def test_mahalanobis_examples():
    assert mahalanobis_sq(pred_1d(1.0, 2.0, 1.0)) == 0.0
    assert mahalanobis_sq(pred_1d(0.0, 2.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert mahalanobis_sq(pred_1d(0.0, 2.0, 4.0)) == pytest.approx(4.0, abs=1e-12)


def test_mahalanobis_matches_explicit_inverse():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5):
        for _ in range(50):
            p = random_pred(rng, d)
            r = p.truth - p.mean
            expected = float(r @ np.linalg.inv(p.covariance) @ r)
            assert mahalanobis_sq(p) == pytest.approx(expected, rel=1e-9)


def test_mahalanobis_whitening_invariance():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        for _ in range(50):
            p = random_pred(rng, d)
            L = p.chol
            li = np.linalg.inv(L)
            whitened = GaussianPrediction(
                mean=li @ p.mean,
                covariance=li @ p.covariance @ li.T,
                truth=li @ p.truth,
            )
            assert mahalanobis_sq(whitened) == pytest.approx(
                mahalanobis_sq(p), rel=1e-9, abs=1e-9
            )


def stacked_factors(rng, n, d):
    a = rng.normal(size=(n, d, d))
    chol = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d))
    resid = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    return chol, resid


def test_kernel_matches_scalar_closed_forms_bit_for_bit():
    # The d = 1 and d = 2 expressions the batched kernel replaced.
    rng = np.random.default_rng(8)
    chol, resid = stacked_factors(rng, 2000, 1)
    z = resid[:, 0] / chol[:, 0, 0]
    assert np.array_equal(_mahalanobis_sq_rows(chol, resid), z * z)
    chol, resid = stacked_factors(rng, 2000, 2)
    got = _mahalanobis_sq_rows(chol, resid)
    for i in range(len(got)):
        z0 = resid[i, 0] / chol[i, 0, 0]
        z1 = (resid[i, 1] - chol[i, 1, 0] * z0) / chol[i, 1, 1]
        assert got[i] == float(z0 * z0 + z1 * z1)


def test_kernel_matches_scipy_triangular_solve():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(9)
    for d in (3, 4, 5):
        chol, resid = stacked_factors(rng, 500, d)
        got = _mahalanobis_sq_rows(chol, resid)
        for i in range(len(got)):
            z = solve_triangular(chol[i], resid[i], lower=True)
            assert got[i] == pytest.approx(float(z @ z), rel=1e-12, abs=0.0)


def test_nees_and_mahalanobis_reject_non_finite():
    good = pred_1d(0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="prediction 1: .*finite"):
        nees([good, pred_1d(0.0, 1.0, math.nan)])
    with pytest.raises(ValueError, match="prediction 2: .*finite"):
        nees([good, good, pred_1d(math.inf, 1.0, 0.5)])
    bad_mean = GaussianPrediction(mean=[math.inf, 0.0], covariance=np.eye(2), truth=[0, 0])
    with pytest.raises(ValueError, match="finite"):
        mahalanobis_sq(bad_mean)


def test_rejects_non_finite_covariance():
    for bad in (math.nan, math.inf):
        for pos in ((0, 0), (2, 1), (0, 2)):
            cov = np.eye(3)
            cov[pos] = bad
            with pytest.raises(ValueError, match="finite"):
                GaussianPrediction(mean=np.zeros(3), covariance=cov, truth=np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_finiteness_rule_for_every_d(d, bad):
    cov = np.eye(d)
    cov[d - 1, 0] = bad
    with pytest.raises(ValueError, match="^covariance must be finite$"):
        GaussianPrediction(mean=np.zeros(d), covariance=cov, truth=np.zeros(d))
    with pytest.raises(ValueError, match="^covariance must be finite$"):
        gaussian_negative_entropy(cov)


def spd_stack(rng, n, d):
    a = rng.normal(size=(n, d, d))
    covs = a @ a.transpose(0, 2, 1) + (0.1 + rng.random((n, 1, 1))) * np.eye(d)
    return 0.5 * (covs + covs.transpose(0, 2, 1)) * 10.0 ** rng.integers(-3, 4, (n, 1, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_stacked_factors_match_each_prediction_bit_for_bit(d):
    rng = np.random.default_rng(20 + d)
    covs = spd_stack(rng, 300, d)
    means, truths = rng.normal(size=(300, d)), rng.normal(size=(300, d))
    chol = _validate(means, covs, truths)
    for i in range(300):
        one = GaussianPrediction(mean=means[i], covariance=covs[i], truth=truths[i]).chol
        assert one.tobytes() == chol[i].tobytes()
        if d >= 3:  # the stacked LAPACK call gives each matrix's own bits
            assert np.linalg.cholesky(covs[i]).tobytes() == chol[i].tobytes()
    if d == 2:  # the scalar closed forms the stacked ones replaced
        for c, got in zip(covs, chol):
            a = math.sqrt(c[0, 0])
            l10 = c[1, 0] / a
            assert got.tolist() == [[a, 0.0], [l10, math.sqrt(c[1, 1] - l10 * l10)]]
    if d == 1:
        assert chol.ravel().tolist() == [math.sqrt(v) for v in covs.ravel()]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_validator_names_the_first_bad_record(d):
    rng = np.random.default_rng(d)
    covs = spd_stack(rng, 6, d)
    means = np.zeros((6, d))
    bad_finite, bad_spd = covs.copy(), covs.copy()
    bad_finite[4, -1, -1] = math.nan
    bad_spd[2] = -np.eye(d)
    for stack, index, reason in (
        (bad_finite, 4, "covariance must be finite"),
        (bad_spd, 2, "covariance is not positive-definite"),
    ):
        with pytest.raises(_InvalidPrediction) as excinfo:
            _validate(means, stack, means)
        assert (excinfo.value.index, excinfo.value.reason) == (index, reason)
    # The earlier record wins, whichever check it fails.
    both = bad_finite.copy()
    both[2] = -np.eye(d)
    with pytest.raises(_InvalidPrediction, match="^prediction 2: covariance is not positive"):
        _validate(means, both, means)
    both = bad_spd.copy()
    both[1, 0, 0] = math.inf
    with pytest.raises(_InvalidPrediction, match="^prediction 1: covariance must be finite$"):
        _validate(means, both, means)
    if d > 1:
        asym = covs.copy()
        asym[3, 0, 1] += 1.0
        with pytest.raises(_InvalidPrediction, match="^prediction 3: covariance is not symm"):
            _validate(means, asym, means)
        # A gap above 1e-9 but within 1e-9 of a large covariance is accepted.
        large = covs / np.abs(covs).max(axis=(1, 2), keepdims=True) * 1e6
        large[5, 0, 1] += 1e-4
        assert _validate(means, large, means).shape == (6, d, d)
    with pytest.raises(_InvalidPrediction, match="^prediction 0: dimension mismatch"):
        _validate(means, covs, means[:, :0])


# ---------------------------------------------------------------------------
# nees / ecd_gaussian
# ---------------------------------------------------------------------------


def test_nees_examples():
    assert nees([pred_1d(0.5, 1.0, 0.5)] * 3) == 0.0
    assert nees([pred_1d(0.0, 2.0, 2.0), pred_1d(1.0, 3.0, 4.0)]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_nees_errors():
    with pytest.raises(ValueError, match="empty"):
        nees([])
    with pytest.raises(ValueError, match="mixed dimensions"):
        nees([pred_1d(0, 1, 0),
              GaussianPrediction(mean=np.zeros(2), covariance=np.eye(2), truth=np.zeros(2))])
    with pytest.raises(ValueError, match="prediction 1: .*overflows"):
        nees([pred_1d(0.0, 1.0, 1.0), pred_1d(0.0, 1e-100, 1e200)])
    with pytest.raises(ValueError, match="NEES overflows"):
        nees([pred_1d(0.0, 1e-150, 1e4)] * 2)
    # Finite mean and truth whose difference overflows.
    far = pred_1d(-1e308, 1.0, 1e308)
    with pytest.raises(ValueError, match=r"^prediction 1: truth - mean overflows$"):
        nees([pred_1d(0.0, 1.0, 1.0), far])
    with pytest.raises(ValueError, match=r"^prediction 0: truth - mean overflows$"):
        mahalanobis_sq(far)


def test_ecd_gaussian_examples():
    assert ecd_gaussian([pred_1d(0.0, 1.0, 0.0)]) == -0.5
    assert ecd_gaussian([pred_1d(0.0, 1.0, 1.0)]) == 0.0
    assert ecd_gaussian([pred_1d(0.0, 1.0, 2.0)]) == pytest.approx(1.5, abs=1e-12)


def test_ecd_gaussian_identity_random():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        preds = [random_pred(rng, d, scale=10.0 ** rng.integers(-2, 3)) for _ in range(100)]
        assert abs(ecd_gaussian(preds) - (nees(preds) - d) / 2.0) <= 1e-12


def test_generic_form_matches_closed_form():
    # negative entropy minus log density == maha/2 - d/2, per sample.
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        for _ in range(100):
            p = random_pred(rng, d)
            generic = gaussian_negative_entropy(p.covariance) - gaussian_log_density(p)
            closed = 0.5 * mahalanobis_sq(p) - d / 2.0
            assert generic == pytest.approx(closed, abs=1e-10)


def test_calibrated_sampling_small():
    rng = np.random.default_rng(5)
    n, d = 20_000, 2
    cov = random_spd(rng, d)
    L = np.linalg.cholesky(cov)
    means = rng.normal(size=(n, d))
    truths = means + rng.normal(size=(n, d)) @ L.T
    preds = [
        GaussianPrediction(mean=means[i], covariance=cov, truth=truths[i])
        for i in range(n)
    ]
    tol = 5.0 * math.sqrt(2.0 * d / n)
    assert abs(nees(preds) - d) <= tol
    assert abs(ecd_gaussian(preds)) <= tol / 2.0


def test_covariance_inflation_decreases_scores():
    rng = np.random.default_rng(6)
    for d in (1, 3):
        base = [random_pred(rng, d) for _ in range(20)]
        # Same residuals, inflated covariances: strictly less confident.
        inflated = [
            GaussianPrediction(mean=p.mean, covariance=4.0 * p.covariance, truth=p.truth)
            for p in base
        ]
        assert nees(inflated) < nees(base)
        assert ecd_gaussian(inflated) < ecd_gaussian(base)


# ---------------------------------------------------------------------------
# Log density / entropy values
# ---------------------------------------------------------------------------


def test_gaussian_log_density_values():
    assert gaussian_log_density(pred_1d(0.0, 1.0, 0.0)) == pytest.approx(
        -0.5 * LOG_2PI, abs=1e-12
    )
    assert gaussian_log_density(pred_1d(0.0, 1.0, 1.0)) == pytest.approx(
        -0.5 * LOG_2PI - 0.5, abs=1e-12
    )
    p = GaussianPrediction(mean=np.zeros(2), covariance=np.eye(2), truth=np.zeros(2))
    assert gaussian_log_density(p) == pytest.approx(-LOG_2PI, abs=1e-12)


def test_gaussian_log_density_matches_scipy():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(7)
    for d in (1, 2, 4):
        for _ in range(25):
            p = random_pred(rng, d)
            expected = multivariate_normal(mean=p.mean, cov=p.covariance).logpdf(p.truth)
            assert gaussian_log_density(p) == pytest.approx(expected, rel=1e-10)


def test_gaussian_negative_entropy_values():
    assert gaussian_negative_entropy(np.eye(1)) == pytest.approx(
        -0.5 * (LOG_2PI + 1.0), abs=1e-12
    )
    assert gaussian_negative_entropy(np.eye(2)) == pytest.approx(
        -(LOG_2PI + 1.0), abs=1e-12
    )
    with pytest.raises(ValueError, match="positive-definite"):
        gaussian_negative_entropy(np.array([[-1.0]]))
    with pytest.raises(ValueError, match="^covariance must be finite$"):
        gaussian_negative_entropy(np.array([[np.inf]]))


def test_gaussian_negative_entropy_decreases_with_spread():
    # Widening the covariance adds entropy, so negative entropy drops.
    base = gaussian_negative_entropy(np.eye(2))
    wider = gaussian_negative_entropy(4.0 * np.eye(2))
    assert wider < base
    assert base - wider == pytest.approx(math.log(4.0), abs=1e-12)
