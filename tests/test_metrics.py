import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocal import (
    ECD_BINARY_LOWER_BOUND,
    ClipPolicy,
    Dataset,
    DiscreteDistribution,
    PredictionRecord,
    brier,
    clip_probability,
    ecd_binary,
    ecd_curve,
    ecd_discrete,
    ecd_sample_binary,
    ecd_sample_scores,
    log_likelihood,
    negative_entropy,
    nll,
)
from entrocal._accumulate import pairwise_mean, pairwise_sum, pairwise_sum_rows

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


def test_pairwise_mean_empty_raises():
    with pytest.raises(ValueError):
        pairwise_mean([])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prob", [-0.1, 1.1, float("nan")])
def test_prediction_record_rejects_bad_prob(prob):
    with pytest.raises(ValueError):
        PredictionRecord(prob, 0)


@pytest.mark.parametrize("label", [-1, 2, 0.5])
def test_prediction_record_rejects_bad_label(label):
    with pytest.raises(ValueError):
        PredictionRecord(0.5, label)


def test_prediction_record_accepts_saturated_probs():
    assert PredictionRecord(0.0, 0).prob == 0.0
    assert PredictionRecord(1.0, 1).prob == 1.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([0.5], [0, 1])
    with pytest.raises(ValueError):
        Dataset([1.5], [1])
    with pytest.raises(ValueError):
        Dataset([0.5], [2])


def test_dataset_round_trip_and_order():
    records = [PredictionRecord(0.2, 1), PredictionRecord(0.9, 0)]
    data = Dataset.from_records(records)
    assert list(data) == records
    assert len(data) == 2
    assert data == Dataset([0.2, 0.9], [1, 0])


def test_dataset_arrays_are_frozen():
    data = Dataset([0.5], [1])
    with pytest.raises(ValueError):
        data.probs[0] = 0.1


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
        DiscreteDistribution(probs)


# ---------------------------------------------------------------------------
# clip_probability
# ---------------------------------------------------------------------------


def test_clip_probability_examples():
    policy = ClipPolicy(1e-4)
    assert clip_probability(0.5, policy) == 0.5
    assert clip_probability(0.0, policy) == 0.0001
    assert clip_probability(0.99995, policy) == 0.9999
    with pytest.raises(ValueError):
        clip_probability(1.2, policy)


# ---------------------------------------------------------------------------
# Per-datum binary score
# ---------------------------------------------------------------------------


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
    for got, rec in zip(scores, data):
        assert got == ecd_sample_binary(rec.prob, rec.label)


def test_negative_entropy_examples():
    assert negative_entropy(DiscreteDistribution([0.5, 0.5])) == pytest.approx(
        math.log(0.5), abs=1e-12
    )
    one_hot = DiscreteDistribution([1.0, 0.0])
    assert negative_entropy(one_hot) == pytest.approx(-0.0010210290370309323, abs=1e-12)
    uniform4 = DiscreteDistribution([0.25] * 4)
    assert negative_entropy(uniform4) == pytest.approx(math.log(0.25), abs=1e-12)


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_negative_entropy_nonpositive(p):
    dist = DiscreteDistribution([p, 1.0 - p])
    assert negative_entropy(dist) < 0.0  # strictly, because clipping keeps entries interior


def test_log_likelihood_examples():
    assert log_likelihood(DiscreteDistribution([0.5, 0.5]), 1) == pytest.approx(
        math.log(0.5), abs=1e-12
    )
    dist = DiscreteDistribution([0.1, 0.9])
    assert log_likelihood(dist, 1) == pytest.approx(math.log(0.9), abs=1e-12)
    assert log_likelihood(dist, 0) == pytest.approx(math.log(0.1), abs=1e-12)
    with pytest.raises(ValueError):
        log_likelihood(dist, 2)


def test_ecd_discrete_examples():
    uniform = [DiscreteDistribution([0.5, 0.5])] * 4
    assert ecd_discrete(uniform, [0, 1, 1, 0]) == pytest.approx(0.0, abs=1e-15)
    single = ecd_discrete([DiscreteDistribution([0.1, 0.9])], [0])
    brute = negative_entropy(DiscreteDistribution([0.1, 0.9])) - math.log(
        clip_probability(0.1)
    )
    assert single == pytest.approx(brute, abs=1e-12)
    assert single == pytest.approx(ecd_sample_binary(0.9, 0), abs=1e-12)


def test_ecd_discrete_errors():
    dist = DiscreteDistribution([0.5, 0.5])
    with pytest.raises(ValueError, match="length mismatch"):
        ecd_discrete([dist], [0, 1])
    with pytest.raises(ValueError, match="empty"):
        ecd_discrete([], [])
    with pytest.raises(ValueError):
        ecd_discrete(np.array([[0.5, 0.5]]), [3])
    with pytest.raises(TypeError):
        ecd_discrete([(0.5, 0.5)], [0])


def test_ecd_discrete_mixed_class_counts():
    # Interleaved class counts: grouped scoring must put scores back in order.
    rng = np.random.default_rng(8)
    dists, labels = [], []
    for k in rng.choice([2, 3, 5], size=41):
        raw = rng.random(k)
        dists.append(DiscreteDistribution(raw / pairwise_sum(raw)))
        labels.append(int(rng.integers(0, k)))
    expected = pairwise_mean(
        [negative_entropy(d) - log_likelihood(d, y) for d, y in zip(dists, labels)]
    )
    assert ecd_discrete(dists, labels) == expected
    two = [DiscreteDistribution([0.2, 0.3, 0.5]), DiscreteDistribution([0.4, 0.6])]
    expected = pairwise_mean(
        [negative_entropy(d) - log_likelihood(d, y) for d, y in zip(two, [2, 0])]
    )
    assert ecd_discrete(two, [2, 0]) == expected


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
    def accepts(build) -> bool:
        try:
            build()
        except ValueError:
            return False
        return True

    as_object = accepts(lambda: DiscreteDistribution(row))
    as_array = accepts(lambda: ecd_discrete(np.array([row]), [0]))
    assert as_object == as_array == (abs(pairwise_sum(row) - 1.0) <= 1e-9)


def test_ecd_discrete_array_path_matches_object_path():
    rng = np.random.default_rng(7)
    raw = rng.random((50, 3))
    rows = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, 50)
    objs = [DiscreteDistribution(row) for row in rows]
    assert ecd_discrete(rows, labels) == pytest.approx(
        ecd_discrete(objs, labels), abs=1e-13
    )


@settings(max_examples=200)
@given(
    st.lists(st.tuples(probs_st, labels_st), min_size=1, max_size=60),
)
def test_ecd_discrete_equals_ecd_binary(pairs):
    probs = [p for p, _ in pairs]
    labels = [x for _, x in pairs]
    dists = [DiscreteDistribution([1.0 - p, p]) for p in probs]
    assert ecd_discrete(dists, labels) == pytest.approx(
        ecd_binary(Dataset(probs, labels)), abs=1e-12
    )


def test_nll_examples():
    assert nll(Dataset([0.5, 0.5], [0, 1])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert nll(Dataset([1.0, 1.0], [1, 1])) == pytest.approx(
        -math.log(0.9999), abs=1e-12
    )
    assert nll(Dataset([0.9], [1])) == pytest.approx(0.10536051565782628, abs=1e-12)


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
    neg_ent = pairwise_mean(
        [negative_entropy(DiscreteDistribution([1.0 - p, p])) for p in probs]
    )
    total = ecd_binary(data)
    assert total == pytest.approx(nll(data) + neg_ent, abs=1e-12)
    assert total <= nll(data) + 1e-15


# ---------------------------------------------------------------------------
# Score curve
# ---------------------------------------------------------------------------


def test_ecd_curve_grid_size_error():
    with pytest.raises(ValueError):
        ecd_curve(1)


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
