import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from entrocal import (
    ECD_BINARY_LOWER_BOUND,
    BinSpec,
    ClipPolicy,
    Dataset,
    GaussianPrediction,
    brier,
    build_report,
    ecd_binary,
    ecd_curve,
    ecd_discrete,
    ecd_gaussian,
    ecd_sample_binary,
    ecd_sample_scores,
    gaussian_log_density,
    log_likelihood,
    negative_entropy,
    nees,
    nll,
    render_report,
    report_from_json,
)
from entrocal import _accumulate
from entrocal._accumulate import _Fold, pairwise_mean, pairwise_sum, pairwise_sum_rows

LN9 = math.log(9.0)

probs_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
labels_st = st.integers(min_value=0, max_value=1)


# ---------------------------------------------------------------------------
# Accumulation
# ---------------------------------------------------------------------------


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 100, 1001):
        x = rng.normal(size=n)
        assert pairwise_sum(x) == pytest.approx(math.fsum(x), abs=1e-12)
    assert pairwise_sum([]) == 0.0


def test_pairwise_sum_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=12345)
    assert pairwise_sum(x) == pairwise_sum(x.copy())


def test_pairwise_sum_chunked_reduction_is_bit_identical():
    # Scores may be produced by a parallel map; reducing the concatenated
    # array must equal the single-shot reduction bit for bit.
    rng = np.random.default_rng(2)
    x = rng.normal(size=10000)
    chunks = np.concatenate([x[:3000], x[3000:7500], x[7500:]])
    assert pairwise_sum(chunks) == pairwise_sum(x)


def _reference_pairwise_sum(x: np.ndarray) -> float:
    # The 1-D tree loop as first written; the shared last-axis tree must match it.
    while x.size > 1:
        m = x.size // 2
        paired = x[: 2 * m : 2] + x[1 : 2 * m : 2]
        if x.size % 2:
            paired = np.concatenate([paired, x[-1:]])
        x = paired
    return float(x[0])


def test_pairwise_sum_rows_matches_scalar():
    rng = np.random.default_rng(3)
    for k in [*range(1, 300), 100_007, 2**20, 3 * 2**18 + 5]:
        mat = rng.normal(size=(4 if k < 300 else 1, k))
        rows = pairwise_sum_rows(mat)
        for i in range(mat.shape[0]):
            assert rows[i] == pairwise_sum(mat[i]) == _reference_pairwise_sum(mat[i])


def _bits(value) -> bytes:
    """The float64 bits of a sum, so that -0.0 differs from 0.0."""
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), width=st.sampled_from([2, 4, 8, 1024]), seed=st.integers(0, 2**32 - 1))
def test_fold_total_is_the_pairwise_sum_of_any_chunking(data, width, seed):
    # Seeded values of mixed magnitudes, whose sums round, so that any change of
    # order shows; some replaced by both zeros, a subnormal or a value near the
    # float range; lengths across several powers of the block width; and any
    # cut points, repeated ones giving empty chunks and adjacent ones one-value
    # chunks.
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(0, 300))
    x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, n)
    if n:
        for i, value in data.draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300])))):
            x[i] = value
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=12)))
    with mock.patch.object(_accumulate, "_WIDTH", width):
        fold = _Fold()
        for chunk in np.split(x, cuts):
            fold.add(chunk)
        assert fold.count == n
        assert _bits(fold.total()) == _bits(pairwise_sum(x))


def test_fold_total_is_the_pairwise_sum_at_scale():
    # The default width over lengths around 2**10 and 2**20, in seeded chunkings,
    # with two columns summed elementwise as the report's bins sum theirs.
    rng = np.random.default_rng(12)
    for n in (1023, 1024, 1025, 5000, 2**20, 2**20 + 3 * 1024 + 5):
        x = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, n)
        pairs = np.stack([x, rng.random(n)])
        fold, fold_pairs = _Fold(), _Fold((2,))
        cuts = np.sort(rng.integers(0, n, 40))
        for chunk, rows in zip(np.split(x, cuts), np.split(pairs, cuts, axis=1)):
            fold.add(chunk)
            fold_pairs.add(rows.T)
        assert _bits(fold.total()) == _bits(pairwise_sum(x))
        assert _bits(fold_pairs.total()) == _bits(pairwise_sum_rows(pairs))


def test_pairwise_mean_empty_raises():
    with pytest.raises(ValueError):
        pairwise_mean([])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([0.5], [0, 1])
    with pytest.raises(ValueError):
        Dataset([1.5], [1])
    with pytest.raises(ValueError):
        Dataset([0.5], [2])


def test_dataset_round_trip_and_order():
    data = Dataset([0.2, 0.9], [1, 0])
    assert data.probs.tolist() == [0.2, 0.9]
    assert data.labels.tolist() == [1, 0]
    assert len(data) == 2
    assert data == Dataset(data.probs, data.labels)
    assert data != Dataset([0.9, 0.2], [0, 1])


def test_dataset_arrays_are_frozen():
    data = Dataset([0.5], [1])
    with pytest.raises(ValueError):
        data.probs[0] = 0.1


@pytest.mark.parametrize("label_dtype", [np.int64, np.uint8, np.float64, bool])
def test_dataset_copies_the_callers_arrays(label_dtype):
    probs, labels = np.array([0.25, 0.75]), np.array([0, 1], dtype=label_dtype)
    data = Dataset(probs, labels)
    probs[0], labels[0] = 0.5, 1
    assert data.probs.tolist() == [0.25, 0.75] and data.labels.tolist() == [0, 1]
    assert data.labels.dtype == np.int64
    assert probs.flags.writeable and labels.flags.writeable


def test_dataset_takes_the_readers_arrays_without_copying():
    probs, labels = np.array([0.25, 0.75]), np.array([0, 1], dtype=np.int64)
    data = Dataset(probs, labels, _owned=True)
    assert data.probs is probs and data.labels is labels
    assert not probs.flags.writeable and not labels.flags.writeable
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Dataset(np.array([0.5]), np.array([2]), _owned=True)


@pytest.mark.parametrize("eps", [0.0, -1e-4, 0.5, 0.7])
def test_clip_policy_bounds(eps):
    with pytest.raises(ValueError):
        ClipPolicy(eps)


@pytest.mark.parametrize(
    "probs",
    [[1.0], [0.5, 0.6], [0.5, -0.1, 0.6], [0.5, 0.5, 0.5]],
)
def test_discrete_distribution_rejects(probs):
    with pytest.raises(ValueError):
        negative_entropy([probs])


# ---------------------------------------------------------------------------
# Per-datum binary score
# ---------------------------------------------------------------------------


# A single (prob, label) record is checked by Dataset on its way into
# ecd_sample_binary; these tests keep the record checks' names.


@pytest.mark.parametrize("prob", [-0.1, 1.1, float("nan")])
def test_prediction_record_rejects_bad_prob(prob):
    with pytest.raises(ValueError, match=r"probs must be finite and within \[0, 1\]"):
        ecd_sample_binary(prob, 0)


@pytest.mark.parametrize("label", [-1, 2, 0.5])
def test_prediction_record_rejects_bad_label(label):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        ecd_sample_binary(0.5, label)


def test_prediction_record_accepts_saturated_probs():
    assert math.isfinite(ecd_sample_binary(0.0, 0))
    assert math.isfinite(ecd_sample_binary(1.0, 1))


def test_clip_probability_examples():
    # The score clamps p to [epsilon, 1 - epsilon] before scoring.
    policy = ClipPolicy(1e-4)
    assert ecd_sample_binary(0.5, 1, policy) == 0.0
    assert ecd_sample_binary(0.0, 0, policy) == ecd_sample_binary(0.0001, 0, policy)
    assert ecd_sample_binary(0.99995, 1, policy) == ecd_sample_binary(0.9999, 1, policy)
    with pytest.raises(ValueError):
        ecd_sample_binary(1.2, 1, policy)


def test_ecd_sample_binary_examples():
    assert ecd_sample_binary(0.5, 0) == 0.0
    assert ecd_sample_binary(0.9, 0) == pytest.approx(0.9 * LN9, abs=1e-12)
    assert ecd_sample_binary(0.9, 1) == pytest.approx(-0.1 * LN9, abs=1e-12)


def test_ecd_sample_binary_minimum_location():
    # Independent 1-D oracle: dense grid plus golden-section refinement.
    qs = np.linspace(0.5, 1.0 - 1e-4, 200_001)
    vals = (qs - 1.0) * (np.log(qs) - np.log(1.0 - qs))
    i = int(np.argmin(vals))
    lo, hi = qs[max(i - 1, 0)], qs[min(i + 1, qs.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    f = lambda q: (q - 1.0) * (math.log(q) - math.log(1.0 - q))
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(200):
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    p_star = (a + b) / 2
    min_val = ecd_sample_binary(p_star, 1)
    assert min_val == pytest.approx(ECD_BINARY_LOWER_BOUND, abs=1e-9)
    assert p_star == pytest.approx(0.78219, abs=1e-4)
    assert -0.2790 <= min_val <= -0.2780


@given(prob=probs_st, label=labels_st)
def test_ecd_sample_binary_lower_bound(prob, label):
    assert ecd_sample_binary(prob, label) >= -0.27847


@given(prob=probs_st)
def test_ecd_sample_binary_label_symmetry(prob):
    assert ecd_sample_binary(prob, 1) == pytest.approx(
        ecd_sample_binary(1.0 - prob, 0), abs=1e-12
    )


@given(label=labels_st)
def test_ecd_sample_binary_zero_at_indifference(label):
    assert ecd_sample_binary(0.5, label) == 0.0


@given(prob=st.floats(min_value=1e-3, max_value=1.0 - 1e-3, allow_nan=False))
def test_ecd_sample_binary_sign_pattern(prob):
    score = ecd_sample_binary(prob, 1)
    if prob < 0.5:
        assert score > 0.0
    elif prob > 0.5:
        assert score < 0.0
    mirrored = ecd_sample_binary(prob, 0)
    if prob > 0.5:
        assert mirrored > 0.0
    elif prob < 0.5:
        assert mirrored < 0.0


@given(delta=st.floats(min_value=1e-6, max_value=0.5 - 1e-4 - 1e-9, allow_nan=False))
def test_ecd_sample_binary_asymmetric_penalty(delta):
    over = ecd_sample_binary(0.5 - delta, 1)
    under = ecd_sample_binary(0.5 + delta, 1)
    assert over >= abs(under)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def test_ecd_binary_examples():
    assert ecd_binary(Dataset([0.5, 0.5, 0.5], [0, 1, 0])) == 0.0
    value = ecd_binary(Dataset([0.9, 0.9], [0, 1]))
    assert value == pytest.approx(0.8788898309344879, abs=1e-12)


def test_ecd_binary_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        ecd_binary(Dataset([], []))


def test_ecd_sample_scores_matches_scalar():
    data = Dataset([0.1, 0.5, 0.93, 1.0, 0.0], [1, 0, 1, 0, 1])
    scores = ecd_sample_scores(data)
    for got, prob, label in zip(scores, data.probs, data.labels):
        assert got == ecd_sample_binary(prob, label)


def test_negative_entropy_examples():
    values = negative_entropy(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert values.shape == (2,)
    assert values[0] == pytest.approx(math.log(0.5), abs=1e-12)
    assert values[1] == pytest.approx(-0.0010210290370309323, abs=1e-12)
    uniform4 = negative_entropy([[0.25] * 4])
    assert uniform4[0] == pytest.approx(math.log(0.25), abs=1e-12)


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_negative_entropy_nonpositive(p):
    (value,) = negative_entropy([[p, 1.0 - p]])
    assert value < 0.0  # strictly, because clipping keeps entries interior


def test_log_likelihood_examples():
    rows = np.array([[0.5, 0.5], [0.1, 0.9], [0.1, 0.9]])
    values = log_likelihood(rows, [1, 1, 0])
    assert values.shape == (3,)
    assert values[0] == pytest.approx(math.log(0.5), abs=1e-12)
    assert values[1] == pytest.approx(math.log(0.9), abs=1e-12)
    assert values[2] == pytest.approx(math.log(0.1), abs=1e-12)
    with pytest.raises(ValueError):
        log_likelihood(rows[1:2], [2])


def test_ecd_discrete_examples():
    uniform = np.full((4, 2), 0.5)
    assert ecd_discrete(uniform, [0, 1, 1, 0]) == pytest.approx(0.0, abs=1e-15)
    single = ecd_discrete(np.array([[0.1, 0.9]]), [0])
    brute = negative_entropy(np.array([[0.1, 0.9]]))[0] - math.log(0.1)
    assert single == pytest.approx(brute, abs=1e-12)
    assert single == pytest.approx(ecd_sample_binary(0.9, 0), abs=1e-12)


def test_ecd_discrete_errors():
    rows = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="length mismatch"):
        ecd_discrete(rows, [0, 1])
    with pytest.raises(ValueError, match="empty"):
        ecd_discrete(np.empty((0, 3)), [])
    with pytest.raises(ValueError):
        ecd_discrete(rows, [3])
    # Any array-like of (N, K) rows is read as the array it converts to.
    assert ecd_discrete([(0.5, 0.5)], [0]) == ecd_discrete(rows, [0])


def test_ecd_discrete_rejects_an_array_that_is_not_n_by_k():
    with pytest.raises(ValueError, match=re.escape("expected an (N, K) array, got shape (2,)")):
        ecd_discrete(np.array([0.5, 0.5]), [0, 1])


@pytest.mark.parametrize(
    "rows, labels, message",
    [
        ([[1.0], [1.0]], [0, 0], "need at least 2 classes, got 1"),  # the whole array's shape
        ([[0.2, 0.3, 0.5], [0.4, 0.6]], [2, 0], "row 1: length 2 differs from row 0's 3"),
        ([[0.5, 0.5], [0.5, np.nan], [2.0, -1.0]], [0] * 3,
         "row 1: entries must be finite and within [0, 1]"),
        ([[0.5, 0.5], [0.5, 0.6], [0.9, 0.9]], [0] * 3,
         "row 1: each row must sum to 1 within 1e-9"),
        ([[0.5, 0.5]] * 4, [0, 1, 0.5, 1.5], "row 2: label 0.5 is not an integer class index"),
        ([[0.5, 0.5]] * 3, [0, 2, -1], "row 1: label 2 out of range for 2-class distribution"),
        ([[0.5, 0.5]], ["a"], "row 0: label 'a' is not an integer class index"),
        ([[0.5, 0.5]] * 2, [1, None], "row 1: label None is not an integer class index"),
        ([[0.5, 0.5]] * 3, np.array([0, 10**30, -1], dtype=object),
         "row 1: label 1e+30 out of range for 2-class distribution"),
        ([[0.5, 0.5], ["a", "b"], [0.5]], [0] * 3, "row 1: entries must be real numbers"),
        ([[0.5, 0.5]] * 2 + [[0.5j, 0.5]], [0] * 3, "row 2: entries must be real numbers"),
        ([[0.5, 0.5], [0.5, [1]], [2.0, -1.0]], [0] * 3, "row 1: entries must be real numbers"),
        ([[0.5, 0.5], [[0.5], [0.5]]], [0, 1], "row 1: entries must be real numbers"),
    ],  # each names the first of its bad rows
    ids=["class-count", "ragged-rows", "entry-range", "row-sum", "non-integer-label",
         "label-out-of-range", "text-label", "object-label", "object-label-out-of-range",
         "text-entry", "complex-entry", "nested-entry", "nested-same-size"],
)
def test_discrete_errors_name_the_first_bad_row(rows, labels, message):
    calls = [lambda: ecd_discrete(rows, labels), lambda: log_likelihood(rows, labels)]
    if "label" not in message:  # a row error, which the label-free function gives too
        calls.append(lambda: negative_entropy(rows))
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("label", [0.5, 1.7, -0.5, float("nan"), float("inf")])
def test_discrete_labels_must_be_whole_numbers(label):
    # A label is a class index; one that is not a whole number is named, not truncated.
    message = re.escape(f"label {label} is not an integer class index")
    rows = np.array([[0.2, 0.8]])
    with pytest.raises(ValueError, match=message):
        ecd_discrete(rows, [label])
    with pytest.raises(ValueError, match=message):
        log_likelihood(rows, [label])


def test_discrete_labels_accept_integer_valued_floats():
    rows = np.array([[0.2, 0.8]])
    assert ecd_discrete(rows, [1.0]) == ecd_discrete(rows, [1])
    assert ecd_discrete(rows, np.array([0.0])) == ecd_discrete(rows, [0])
    assert np.array_equal(log_likelihood(rows, [1.0]), log_likelihood(rows, [1]))
    # An object array of Python ints is read as the numbers it holds.
    rows = np.array([[0.2, 0.8], [0.7, 0.3]])
    assert ecd_discrete(rows, np.array([0, 1], dtype=object)) == ecd_discrete(rows, [0, 1])


# Rows whose sum is within rounding of the 1e-9 tolerance, where a plain
# np.sum and the pairwise tree fall on opposite sides of it.
EDGE_ROWS = [
    [0.2366375673036639, 0.4070329125623949, 0.3551374630569152, 0.0011920580770260348],
    [0.2484867551834585, 0.18251051375993008, 0.17187024562704847, 0.3418482875167874,
     0.05528419891277549],
    [0.10215173132687089, 0.03387851100701104, 0.09253273340256472, 0.023067117005662597,
     0.09986975118176525, 0.10509857093966894, 0.004978319301505694, 0.034262480480023554,
     0.10535890062174467, 0.10219742321832913, 0.0707791022369808, 0.014193561047722078,
     0.0006984308856063276, 0.02630427049214349, 0.09967739400592028, 0.08495170384648036],
]


@pytest.mark.parametrize("row", EDGE_ROWS, ids=lambda r: f"K{len(r)}")
def test_discrete_object_and_array_forms_agree_on_edge_rows(row):
    # A list of Python floats and an ndarray of the same row are accepted alike.
    def accepts(build) -> bool:
        try:
            build()
        except ValueError:
            return False
        return True

    as_object = accepts(lambda: negative_entropy([row]))
    as_array = accepts(lambda: ecd_discrete(np.array([row]), [0]))
    assert as_object == as_array == (abs(pairwise_sum(row) - 1.0) <= 1e-9)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(probs_st, labels_st), min_size=1, max_size=60),
)
def test_ecd_discrete_equals_ecd_binary(pairs):
    probs = np.array([p for p, _ in pairs])
    labels = [x for _, x in pairs]
    assert ecd_discrete(np.column_stack([1.0 - probs, probs]), labels) == pytest.approx(
        ecd_binary(Dataset(probs, labels)), abs=1e-12
    )


def test_nll_examples():
    assert nll(Dataset([0.5, 0.5], [0, 1])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert nll(Dataset([1.0, 1.0], [1, 1])) == pytest.approx(
        -math.log(0.9999), abs=1e-12
    )
    assert nll(Dataset([0.9], [1])) == pytest.approx(0.10536051565782628, abs=1e-12)


@pytest.mark.parametrize("epsilon", [1e-12, 1e-4, 0.1, 0.49])
def test_scores_and_nll_keep_the_bits_of_their_formulas(epsilon):
    # Each must give the bits of its one-line formula.
    rng = np.random.default_rng(7)
    probs = rng.random(10_001)
    probs[::97], probs[1::89], probs[2::83] = 0.0, 1.0, 0.5
    labels = rng.integers(0, 2, probs.size)
    data, policy = Dataset(probs, labels), ClipPolicy(epsilon)
    q = np.clip(probs, epsilon, 1.0 - epsilon)
    scores = (q - labels) * (np.log(q) - np.log(1.0 - q))
    terms = -(labels * np.log(q) + (1 - labels) * np.log(1.0 - q))
    assert ecd_sample_scores(data, policy).tobytes() == scores.tobytes()
    assert nll(data, policy) == pairwise_mean(terms)
    for i in range(0, probs.size, 50):  # one row at a time, so no ulp hides in the mean
        assert nll(Dataset(probs[i : i + 1], labels[i : i + 1]), policy) == terms[i]


@pytest.mark.parametrize("epsilon", [1e-17, 5e-324, 2.0**-54], ids=["1e-17", "5e-324", "2^-54"])
def test_clip_policy_rejects_epsilon_whose_complement_rounds_to_one(epsilon):
    # 1 - epsilon would be 1, so q could be 1, where ln(1 - q) is -inf: ECD and NLL were NaN.
    message = f"epsilon must be above 2**-54, so that 1 - epsilon is below 1; got {epsilon}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ClipPolicy(epsilon)


def test_smallest_epsilon_keeps_the_report_finite():
    # 2^-53 is the smallest power of two whose 1 - epsilon is below 1.
    data = Dataset([0.0, 0.5, 1.0] * 2, [0, 0, 0, 1, 1, 1])
    report = build_report(data, BinSpec(2), ClipPolicy(2.0**-53))
    back = report_from_json(render_report(report, "json").content)  # which rejects a NaN
    assert np.isfinite([back.ecd, back.nll]).all()


def test_brier_examples():
    assert brier(Dataset([1.0, 1.0], [1, 1])) == 0.0
    assert brier(Dataset([0.5, 0.5], [0, 1])) == pytest.approx(0.25, abs=1e-15)
    assert brier(Dataset([0.9], [0])) == pytest.approx(0.81, abs=1e-12)


@settings(max_examples=200)
@given(st.lists(st.tuples(probs_st, labels_st), min_size=1, max_size=60))
def test_brier_bounds(pairs):
    data = Dataset([p for p, _ in pairs], [x for _, x in pairs])
    assert 0.0 <= brier(data) <= 1.0


@settings(max_examples=150)
@given(st.lists(st.tuples(probs_st, labels_st), min_size=1, max_size=60))
def test_decomposition_identity(pairs):
    # ecd = nll + mean per-record negative entropy, and hence ecd <= nll.
    probs = [p for p, _ in pairs]
    labels = [x for _, x in pairs]
    data = Dataset(probs, labels)
    neg_ent = pairwise_mean(negative_entropy(np.column_stack([1.0 - data.probs, data.probs])))
    total = ecd_binary(data)
    assert total == pytest.approx(nll(data) + neg_ent, abs=1e-12)
    assert total <= nll(data) + 1e-15


# ---------------------------------------------------------------------------
# ECD as NLL's slope in confidence
# ---------------------------------------------------------------------------

#: Step h of the central difference in log T (or log c), and the identity's tolerance:
#: relative, with an absolute floor for an ECD near 0.
LOG_STEP, SLOPE_RTOL, SLOPE_ATOL = 1e-4, 1e-6, 1e-8
EPSILON = ClipPolicy().epsilon


def _log_slope(nll_at, scale: float) -> float:
    """Central difference of ``nll_at`` in log ``scale``, with step ``LOG_STEP``."""
    up, down = scale * math.exp(LOG_STEP), scale * math.exp(-LOG_STEP)
    return (nll_at(up) - nll_at(down)) / (2.0 * LOG_STEP)


def _logistic(z: np.ndarray, t: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z / t))


def _softmax(z: np.ndarray, t: float) -> np.ndarray:
    e = np.exp(z / t - (z / t).max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _clamped(probs: np.ndarray) -> np.ndarray:
    """Where the default clip policy moves a probability."""
    return (probs < EPSILON) | (probs > 1.0 - EPSILON)


def _unclamped_near(probs_at, t: float) -> bool:
    """Whether no probability is clamped at T or T·e^{±h}."""
    return not any(_clamped(probs_at(t * math.exp(s * LOG_STEP))).any() for s in (-1, 0, 1))


@seed(321)
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-4.0, 4.0), labels_st), min_size=1, max_size=40),
       log_t=st.floats(-0.5, 1.0))
def test_binary_ecd_is_minus_the_slope_of_nll_in_log_temperature(rows, log_t):
    # q = logistic(z / T) gives d NLL / d log T = -ECD exactly while no q is clamped.
    z, labels = (np.array(column) for column in zip(*rows))
    t = math.exp(log_t)
    assume(_unclamped_near(lambda s: _logistic(z, s), t))
    slope = _log_slope(lambda s: nll(Dataset(_logistic(z, s), labels)), t)
    assert math.isclose(ecd_binary(Dataset(_logistic(z, t), labels)), -slope,
                        rel_tol=SLOPE_RTOL, abs_tol=SLOPE_ATOL)


@seed(322)
@settings(max_examples=400, deadline=None)
@given(rows=st.integers(2, 6).flatmap(lambda k: st.lists(
           st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k),
                     st.integers(0, k - 1)), min_size=1, max_size=30)),
       log_t=st.floats(-0.5, 1.0))
def test_discrete_ecd_is_minus_the_slope_of_nll_in_log_temperature(rows, log_t):
    # q = softmax(z / T) gives d NLL / d log T = -ECD exactly while no q is clamped.
    z, labels = np.array([logits for logits, _ in rows]), [y for _, y in rows]
    t = math.exp(log_t)
    assume(_unclamped_near(lambda s: _softmax(z, s), t))
    slope = _log_slope(lambda s: -np.mean(log_likelihood(_softmax(z, s), labels)), t)
    assert math.isclose(ecd_discrete(_softmax(z, t), labels), -slope,
                        rel_tol=SLOPE_RTOL, abs_tol=SLOPE_ATOL)


def _gaussian_stacks(rng, n: int, d: int):
    """Seeded means (n, d), SPD covariances (n, d, d) and truths (n, d)."""
    a, mean = rng.normal(size=(n, d, d)), rng.normal(size=(n, d))
    return mean, a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d), rng.normal(size=(n, d))


@seed(323)
@settings(max_examples=100, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), d=st.integers(1, 4),
       log_c=st.floats(-2.0, 2.0))
def test_gaussian_ecd_is_minus_the_slope_of_nll_in_log_covariance_scale(rng_seed, n, d, log_c):
    # Covariances c·Σ give d NLL / d log c = (d - NEES) / 2 = -ECD exactly; nothing is clamped.
    mean, cov, truth = _gaussian_stacks(np.random.default_rng(rng_seed), n, d)
    c = math.exp(log_c)
    slope = _log_slope(
        lambda s: -np.mean(gaussian_log_density(GaussianPrediction(mean, s * cov, truth))), c)
    assert math.isclose(ecd_gaussian(GaussianPrediction(mean, c * cov, truth)), -slope,
                        rel_tol=SLOPE_RTOL, abs_tol=SLOPE_ATOL)


def test_clamping_alone_breaks_the_slope_identity():
    # Logits spread to ±12 at T = 0.5 put some q past [ε, 1 - ε]. A clamped q stays put as
    # T moves, so its NLL adds no slope while its ECD counts: the central difference misses
    # ECD by the clamped points' share of it, and by nothing else.
    z, t = np.linspace(-12.0, 12.0, 49), 0.5
    labels = np.random.default_rng(324).integers(0, 2, z.size)
    clamped = [_clamped(_logistic(z, t * math.exp(s * LOG_STEP))) for s in (-1, 0, 1)]
    assert clamped[0].tolist() == clamped[1].tolist() == clamped[2].tolist()
    assert 0 < clamped[1].sum() < z.size
    data = Dataset(_logistic(z, t), labels)
    slope = _log_slope(lambda s: nll(Dataset(_logistic(z, s), labels)), t)
    ecd = ecd_binary(data)
    assert abs(ecd + slope) > 1e-3
    share = ecd_sample_scores(data)[clamped[1]].sum() / z.size
    assert math.isclose(ecd - share, -slope, rel_tol=SLOPE_RTOL, abs_tol=SLOPE_ATOL)


def test_gaussian_ecd_is_zero_at_the_covariance_scale_nees_over_d():
    # c* = NEES / d scales NEES to d, so ECD on c*·Σ is 0 up to rounding.
    rng = np.random.default_rng(325)
    for d in (1, 2, 3, 4):
        for n in (1, 7, 50):
            mean, cov, truth = _gaussian_stacks(rng, n, d)
            c = nees(GaussianPrediction(mean, cov, truth)) / d
            assert abs(ecd_gaussian(GaussianPrediction(mean, c * cov, truth))) <= 1e-12


# ---------------------------------------------------------------------------
# Score curve
# ---------------------------------------------------------------------------


def test_ecd_curve_grid_size_error():
    with pytest.raises(ValueError, match="grid_size must be an integer >= 2, got 1"):
        ecd_curve(1)
    with pytest.raises(ValueError, match="grid_size must be an integer >= 2, got 2.5"):
        ecd_curve(2.5)


def test_ecd_curve_values():
    curve = ecd_curve(2001)
    probs = [c[0] for c in curve]
    mid = curve[1000]
    assert mid[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(mid[1]) < 1e-11 and abs(mid[2]) < 1e-11
    first = curve[0]
    assert first[0] == pytest.approx(1e-4, abs=1e-18)
    assert first[2] == pytest.approx(9.20931934293915, abs=1e-9)
    assert first[2] > 9.0
    min_label1 = min(c[2] for c in curve)
    assert min_label1 == pytest.approx(ECD_BINARY_LOWER_BOUND, abs=5e-4)
    assert probs == sorted(probs)
    # Below 0.5 the label-1 score grows strictly as p shrinks (the steep
    # over-confidence branch).
    below = [c[2] for c in curve if c[0] < 0.5]
    assert all(a > b for a, b in zip(below, below[1:]))


def test_ecd_curve_spans_clip_range():
    policy = ClipPolicy(1e-3)
    curve = ecd_curve(11, policy)
    assert curve[0][0] == pytest.approx(1e-3)
    assert curve[-1][0] == pytest.approx(1.0 - 1e-3)
