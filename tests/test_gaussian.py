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


def stack_1d(*records):
    """A d = 1 stack of (mean, sigma, truth) records."""
    mean, sigma, truth = np.array(records, dtype=np.float64).T
    return GaussianPrediction(mean[:, None], (sigma**2)[:, None, None], truth[:, None])


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + (0.1 + rng.random()) * np.eye(d))


def random_record(rng, d, scale=1.0):
    """One record's mean, covariance and truth, drawn in that order."""
    return rng.normal(size=d), random_spd(rng, d, scale), rng.normal(size=d)


def stack(records):
    return GaussianPrediction(*map(np.array, zip(*records)))


def random_preds(rng, n, d, scale=1.0):
    return stack([random_record(rng, d, scale) for _ in range(n)])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_rejects_non_spd():
    with pytest.raises(ValueError, match="^prediction 0: covariance is not positive-definite$"):
        stack_1d((0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^prediction 1: covariance is not positive-definite$"):
        GaussianPrediction(
            mean=np.zeros((2, 2)),
            covariance=np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]),
            truth=np.zeros((2, 2)),
        )


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="^prediction 0: covariance is not symmetric"):
        GaussianPrediction(
            mean=np.zeros((1, 2)),
            covariance=np.array([[[1.0, 0.5], [0.1, 1.0]]]),
            truth=np.zeros((1, 2)),
        )


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^prediction 0: dimension mismatch: mean 2, truth 3, "):
        GaussianPrediction(mean=np.zeros((1, 2)), covariance=np.eye(2)[None],
                           truth=np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"^prediction 0: dimension mismatch: .*\(2, 3\)$"):
        GaussianPrediction(mean=np.zeros((1, 2)), covariance=np.zeros((1, 2, 3)),
                           truth=np.zeros((1, 2)))


@pytest.mark.parametrize("mean,covariance,truth", [
    (np.zeros((2, 1)), np.eye(2), np.zeros(2)),  # one record, not stacked
    (np.zeros(2), np.eye(2)[None], np.zeros((1, 2))),
    (np.zeros((1, 2)), np.eye(2)[None], np.zeros((1, 2, 1))),
    (np.zeros((3, 2)), np.stack([np.eye(2)] * 2), np.zeros((3, 2))),  # N differs
    (np.zeros((3, 2)), np.stack([np.eye(2)] * 3), np.zeros((2, 2))),
    (np.zeros((0, 2)), np.zeros((0, 2, 2)), np.zeros((0, 2))),  # N = 0
    (0.0, 1.0, 0.0),
], ids=["ravel-mean", "vector-mean", "stacked-truth-3d", "n-covariance", "n-truth", "empty",
        "scalars"])
def test_rejects_what_is_not_a_stack(mean, covariance, truth):
    shapes = tuple(np.shape(a) for a in (mean, covariance, truth))
    with pytest.raises(ValueError) as excinfo:
        GaussianPrediction(mean, covariance, truth)
    assert str(excinfo.value) == (
        "expected mean (N, d), covariance (N, d, d) and truth (N, d) with N >= 1, "
        "got {}, {} and {}".format(*shapes))


def test_scores_take_a_prediction_only():
    pred = stack_1d((0.0, 1.0, 1.0))
    for score in (mahalanobis_sq, nees, ecd_gaussian, gaussian_log_density):
        for other in ([pred], (p for p in [pred])):
            with pytest.raises(TypeError, match="^expected a GaussianPrediction, got (list|gen)"):
                score(other)


def test_prediction_keeps_its_own_read_only_copies():
    # A write to the caller's arrays after construction reaches neither the
    # prediction nor its scores, and the prediction's own arrays are read-only.
    mean, cov, truth = np.zeros((1, 2)), np.eye(2)[None].copy(), np.ones((1, 2))
    pred = GaussianPrediction(mean, cov, truth)
    assert nees(pred) == 2.0
    cov *= 4.0
    cov[0] = -np.eye(2)  # not positive-definite: must not be scored either
    mean += 1.0
    assert nees(pred) == 2.0
    np.testing.assert_array_equal(pred.covariance, np.eye(2)[None])
    np.testing.assert_array_equal(pred.mean, np.zeros((1, 2)))
    for name in ("mean", "covariance", "truth", "chol"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(pred, name)[0, 0] = 5.0
    assert nees(pred) == 2.0


def test_accepts_tiny_asymmetry():
    cov = np.array([[[1.0, 0.5], [0.5 + 1e-12, 1.0]]])
    p = GaussianPrediction(mean=np.zeros((1, 2)), covariance=cov, truth=np.zeros((1, 2)))
    assert p.dim == 2


def test_cholesky_matches_lapack_small_d():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4):
        covs = np.array([random_spd(rng, d) for _ in range(100)])
        p = GaussianPrediction(mean=np.zeros((100, d)), covariance=covs, truth=np.zeros((100, d)))
        for chol, cov in zip(p.chol, covs):
            np.testing.assert_allclose(chol, np.linalg.cholesky(cov), rtol=1e-12)


# ---------------------------------------------------------------------------
# mahalanobis_sq
# ---------------------------------------------------------------------------


def test_mahalanobis_examples():
    got = mahalanobis_sq(stack_1d((1.0, 2.0, 1.0), (0.0, 2.0, 2.0), (0.0, 2.0, 4.0)))
    assert got.shape == (3,) and got[0] == 0.0
    assert got[1:] == pytest.approx([1.0, 4.0], abs=1e-12)


def test_mahalanobis_matches_explicit_inverse():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5):
        p = random_preds(rng, 50, d)
        expected = [float(r @ np.linalg.inv(c) @ r)
                    for r, c in zip(p.truth - p.mean, p.covariance)]
        assert mahalanobis_sq(p) == pytest.approx(expected, rel=1e-9)


def test_mahalanobis_whitening_invariance():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        p = random_preds(rng, 50, d)
        li = np.linalg.inv(p.chol)
        whitened = GaussianPrediction(
            mean=np.einsum("nij,nj->ni", li, p.mean),
            covariance=li @ p.covariance @ li.transpose(0, 2, 1),
            truth=np.einsum("nij,nj->ni", li, p.truth),
        )
        assert mahalanobis_sq(whitened) == pytest.approx(mahalanobis_sq(p), rel=1e-9, abs=1e-9)


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
    good = (0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="^prediction 1: mean and truth must be finite$"):
        nees(stack_1d(good, (0.0, 1.0, math.nan)))
    with pytest.raises(ValueError, match="^prediction 2: mean and truth must be finite$"):
        nees(stack_1d(good, good, (math.inf, 1.0, 0.5)))
    bad_mean = GaussianPrediction(mean=[[math.inf, 0.0]], covariance=[np.eye(2)], truth=[[0, 0]])
    with pytest.raises(ValueError, match="^prediction 0: mean and truth must be finite$"):
        mahalanobis_sq(bad_mean)


def test_rejects_non_finite_covariance():
    for bad in (math.nan, math.inf):
        for pos in ((0, 0), (2, 1), (0, 2)):
            cov = np.eye(3)[None].copy()
            cov[(0, *pos)] = bad
            with pytest.raises(ValueError, match="^prediction 0: covariance must be finite$"):
                GaussianPrediction(mean=np.zeros((1, 3)), covariance=cov, truth=np.zeros((1, 3)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_finiteness_rule_for_every_d(d, bad):
    for n in (1, 2):  # the bad record alone, and after a good one
        cov = np.stack([np.eye(d)] * n)
        cov[-1, d - 1, 0] = bad
        message = f"^prediction {n - 1}: covariance must be finite$"
        with pytest.raises(ValueError, match=message):
            GaussianPrediction(mean=np.zeros((n, d)), covariance=cov, truth=np.zeros((n, d)))
        with pytest.raises(ValueError, match=message):
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
    chol = GaussianPrediction(means, covs, truths).chol
    for i in range(300):  # a stack of one record
        one = GaussianPrediction(means[i : i + 1], covs[i : i + 1], truths[i : i + 1]).chol[0]
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
    for covs_, index, reason in (
        (bad_finite, 4, "covariance must be finite"),
        (bad_spd, 2, "covariance is not positive-definite"),
    ):
        with pytest.raises(_InvalidPrediction) as excinfo:
            _validate(means, covs_, means)
        assert (excinfo.value.index, excinfo.value.reason) == (index, reason)
        with pytest.raises(ValueError, match=f"^prediction {index}: {reason}$"):
            GaussianPrediction(means, covs_, means)
    # The scores name the record whose mean or truth is not finite, or whose
    # residual or distance overflows.
    nan_mean, far_mean, far_truth, big_truth = (means.copy() for _ in range(4))
    nan_mean[3, -1] = math.nan
    far_mean[4, 0], far_truth[4, 0] = -1e308, 1e308
    big_truth[5, 0] = 1e200
    tiny = covs.copy()
    tiny[5] = 1e-300 * np.eye(d)
    for mean, covs_, truth, index, reason in (
        (nan_mean, covs, means, 3, "mean and truth must be finite"),
        (far_mean, covs, far_truth, 4, "truth - mean overflows"),
        (means, tiny, big_truth, 5, "squared Mahalanobis distance overflows"),
    ):
        pred = GaussianPrediction(mean, covs_, truth)
        for score in (mahalanobis_sq, nees, ecd_gaussian, gaussian_log_density):
            with pytest.raises(ValueError, match=f"^prediction {index}: {reason}$"):
                score(pred)
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
    assert nees(stack_1d(*[(0.5, 1.0, 0.5)] * 3)) == 0.0
    assert nees(stack_1d((0.0, 2.0, 2.0), (1.0, 3.0, 4.0))) == pytest.approx(1.0, abs=1e-12)


def test_nees_errors():
    with pytest.raises(ValueError, match=r"N >= 1, got \(0, 1\), \(0, 1, 1\) and \(0, 1\)$"):
        nees(GaussianPrediction(np.zeros((0, 1)), np.zeros((0, 1, 1)), np.zeros((0, 1))))
    with pytest.raises(ValueError, match="^prediction 1: squared Mahalanobis distance overflows$"):
        nees(stack_1d((0.0, 1.0, 1.0), (0.0, 1e-100, 1e200)))
    with pytest.raises(ValueError, match="^NEES overflows"):
        nees(stack_1d(*[(0.0, 1e-150, 1e4)] * 2))
    # Finite mean and truth whose difference overflows.
    far = (-1e308, 1.0, 1e308)
    with pytest.raises(ValueError, match=r"^prediction 1: truth - mean overflows$"):
        nees(stack_1d((0.0, 1.0, 1.0), far))
    with pytest.raises(ValueError, match=r"^prediction 0: truth - mean overflows$"):
        mahalanobis_sq(stack_1d(far))


def test_ecd_gaussian_examples():
    assert ecd_gaussian(stack_1d((0.0, 1.0, 0.0))) == -0.5
    assert ecd_gaussian(stack_1d((0.0, 1.0, 1.0))) == 0.0
    assert ecd_gaussian(stack_1d((0.0, 1.0, 2.0))) == pytest.approx(1.5, abs=1e-12)


def test_ecd_gaussian_identity_random():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        pred = stack([random_record(rng, d, scale=10.0 ** rng.integers(-2, 3))
                      for _ in range(100)])
        assert abs(ecd_gaussian(pred) - (nees(pred) - d) / 2.0) <= 1e-12


def test_generic_form_matches_closed_form():
    # negative entropy minus log density == maha/2 - d/2, per record.
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        p = random_preds(rng, 100, d)
        generic = gaussian_negative_entropy(p.covariance) - gaussian_log_density(p)
        closed = 0.5 * mahalanobis_sq(p) - d / 2.0
        assert generic.shape == (100,)
        assert generic == pytest.approx(closed, abs=1e-10)


def test_calibrated_sampling_small():
    rng = np.random.default_rng(5)
    n, d = 20_000, 2
    cov = random_spd(rng, d)
    L = np.linalg.cholesky(cov)
    means = rng.normal(size=(n, d))
    truths = means + rng.normal(size=(n, d)) @ L.T
    pred = GaussianPrediction(mean=means, covariance=np.broadcast_to(cov, (n, d, d)), truth=truths)
    tol = 5.0 * math.sqrt(2.0 * d / n)
    assert abs(nees(pred) - d) <= tol
    assert abs(ecd_gaussian(pred)) <= tol / 2.0


def test_covariance_inflation_decreases_scores():
    rng = np.random.default_rng(6)
    for d in (1, 3):
        base = random_preds(rng, 20, d)
        # Same residuals, inflated covariances: strictly less confident.
        inflated = GaussianPrediction(mean=base.mean, covariance=4.0 * base.covariance,
                                      truth=base.truth)
        assert nees(inflated) < nees(base)
        assert ecd_gaussian(inflated) < ecd_gaussian(base)


# ---------------------------------------------------------------------------
# Log density / entropy values
# ---------------------------------------------------------------------------


def test_gaussian_log_density_values():
    assert gaussian_log_density(stack_1d((0.0, 1.0, 0.0), (0.0, 1.0, 1.0))) == pytest.approx(
        [-0.5 * LOG_2PI, -0.5 * LOG_2PI - 0.5], abs=1e-12
    )
    p = GaussianPrediction(mean=np.zeros((1, 2)), covariance=np.eye(2)[None],
                           truth=np.zeros((1, 2)))
    assert gaussian_log_density(p) == pytest.approx([-LOG_2PI], abs=1e-12)


def test_gaussian_log_density_matches_scipy():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(7)
    for d in (1, 2, 4):
        p = random_preds(rng, 25, d)
        expected = [multivariate_normal(mean=m, cov=c).logpdf(t)
                    for m, c, t in zip(p.mean, p.covariance, p.truth)]
        assert gaussian_log_density(p) == pytest.approx(expected, rel=1e-10)


def test_gaussian_negative_entropy_values():
    assert gaussian_negative_entropy(np.eye(1)[None]) == pytest.approx(
        [-0.5 * (LOG_2PI + 1.0)], abs=1e-12
    )
    assert gaussian_negative_entropy(np.eye(2)[None]) == pytest.approx(
        [-(LOG_2PI + 1.0)], abs=1e-12
    )
    with pytest.raises(ValueError, match="^prediction 0: covariance is not positive-definite$"):
        gaussian_negative_entropy(np.array([[[-1.0]]]))
    with pytest.raises(ValueError, match="^prediction 1: covariance must be finite$"):
        gaussian_negative_entropy(np.array([[[1.0]], [[np.inf]]]))


def test_gaussian_negative_entropy_rejects_a_matrix_that_is_not_square():
    for shape in ((2, 3), (1, 2, 3), (0, 2, 2), (2,)):  # and what is not a stack
        with pytest.raises(ValueError) as excinfo:
            gaussian_negative_entropy(np.ones(shape))
        assert str(excinfo.value) == f"expected covariance (N, d, d) with N >= 1, got {shape}"


def test_gaussian_negative_entropy_decreases_with_spread():
    # Widening the covariance adds entropy, so negative entropy drops.
    base, wider = gaussian_negative_entropy(np.array([np.eye(2), 4.0 * np.eye(2)]))
    assert wider < base
    assert base - wider == pytest.approx(math.log(4.0), abs=1e-12)
